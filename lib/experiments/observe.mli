(** [repro observe] — flight-recorder demonstration and report.

    Runs a small preemption-heavy workload (two KLT-switching compute
    threads sharing one worker under a 2 ms aligned timer, mirroring
    [examples/preemption_timeline.ml]) with the {!Preempt_core.Recorder}
    enabled, then reconstructs ULT lifecycles, attributes preemption
    latency to its stages, scans for anomalies, and cross-checks the
    ring-derived stage sums against the live [sig_to_switch] histogram.
    The same report renders a loaded binary dump ([--load]), minus the
    metrics cross-check.  See docs/observability.md. *)

val run_workload : unit -> Preempt_core.Runtime.t * int list
(** Build and run the demo workload to completion; returns the runtime
    (recorder and metrics populated) and the spawned uids. *)

(** Attribution chains grouped by preempted thread; durations are mean
    seconds per stage. *)
type row = {
  rw_uid : int;
  rw_n : int;
  rw_fire_to_handler : float;
  rw_handler_to_switch : float;
  rw_switch_to_run : float;
  rw_total : float;
}

type consistency = {
  cs_chains : int;  (** completed attribution chains *)
  cs_samples : int;  (** samples in the sig_to_switch histogram *)
  cs_chain_p50 : float;  (** interpolated p50 of the chain totals *)
  cs_hist_p50 : float;  (** interpolated p50 of sig_to_switch *)
  cs_bucket_distance : int;
      (** |bucket(chain p50) - bucket(hist p50)|; acceptance bound 1 *)
}

(** Sub-pool steal attribution, reconstructed from
    [Recorder.ev_pool_steal] events in dumps saved by the real fiber
    runtime ([Fiber] with [Config.recorder]).  Each event carries
    (thief sub-pool, victim sub-pool): equal ids are same-sub-pool
    (local) steals, differing ids are cross-sub-pool overflow. *)
type steal_split = {
  ss_local : int;  (** same-sub-pool steals (thief = victim) *)
  ss_overflow : int;  (** cross-sub-pool overflow steals *)
  ss_pairs : (int * int * int) list;
      (** overflow breakdown: (thief sub-pool, victim sub-pool, count),
          sorted *)
  ss_batches : (int * int) list;
      (** batch-size histogram from [Recorder.ev_steal_batch]: (batch
          size, raids of that size), ascending; a raid's size counts
          every task it claimed, including the one the thief ran
          itself.  Empty for dumps predating batched raids. *)
}

(** Adaptive-quantum attribution, reconstructed from
    [Recorder.ev_quantum_change] events in dumps saved by an adaptive
    fiber pool ([Config.adaptive]).  Each event carries (worker id, new
    quantum in ns); each worker emits its own changes into its own ring,
    so per-worker change ordering is its emission order.  See
    docs/observability.md for the event schema. *)
type quantum_row = {
  qr_worker : int;
  qr_changes : int;
  qr_min : float;  (** smallest quantum reached, seconds *)
  qr_max : float;  (** largest quantum reached, seconds *)
  qr_last : float;  (** quantum at end of record, seconds *)
}

type quantum_split = {
  qs_changes : int;
  qs_shrinks : int;  (** changes that tightened the quantum *)
  qs_grows : int;  (** changes that relaxed it back toward base *)
  qs_rows : quantum_row list;  (** per worker, sorted by worker id *)
}

(** Per-request span decomposition, reconstructed from the
    [Recorder.ev_req_arrival] .. [ev_req_done] events emitted by a
    recorder-armed serving run ([Serve] with [recorder = true]).  The
    request's sojourn splits into queueing (arrival -> first
    dispatch), preemption overhead (each bracketed preempt -> resume
    gap) and service (the rest); the stage sum is checked
    bucket-for-bucket against the measured sojourn carried in
    [ev_req_done]'s payload. *)
type span_row = {
  sr_req : int;
  sr_class : int;  (** service class from [ev_req_arrival]; -1 unknown *)
  sr_queue : float;  (** arrival -> first dispatch, seconds *)
  sr_service : float;  (** dispatch -> done minus overhead *)
  sr_overhead : float;  (** sum of preempt -> resume gaps *)
  sr_preempts : int;  (** bracketed preemption yields *)
  sr_total : float;  (** stage sum = queue + service + overhead *)
  sr_exact : bool;  (** bucket(stage sum) = bucket(measured sojourn) *)
}

type span_split = {
  spn_requests : int;  (** distinct request ids seen in the record *)
  spn_complete : int;  (** spans with arrival, dispatch and done intact *)
  spn_verified : int;
      (** complete spans whose stage sum reproduces the measured
          sojourn bucket-for-bucket *)
  spn_queue : Preempt_core.Metrics.Hist.t;
      (** queueing stage over complete spans *)
  spn_service : Preempt_core.Metrics.Hist.t;
  spn_overhead : Preempt_core.Metrics.Hist.t;
  spn_total : Preempt_core.Metrics.Hist.t;
      (** stage sums over complete spans *)
  spn_rows : span_row list;  (** complete spans, slowest first *)
}

type report = {
  r_events : Preempt_core.Recorder.event array;
  r_emitted : int;  (** events emitted over the recorder's lifetime *)
  r_rings : int;
  r_capacity : int;
  r_overwritten : int array;
      (** per ring: events lost to wraparound; non-zero counts mean
          reconstructions below may be truncated *)
  r_lifecycles : Preempt_core.Recorder.lifecycle list;
  r_chains : Preempt_core.Recorder.chain list;
  r_rows : row list;  (** chains grouped by preempted uid *)
  r_anomalies : Preempt_core.Recorder.anomaly list;
  r_consistency : consistency option;  (** [None] without live metrics *)
  r_steals : steal_split option;
      (** [None] when the record carries no pool-steal events (the
          simulated runtime never emits them) *)
  r_quanta : quantum_split option;
      (** [None] when the record carries no quantum-change events
          (fixed-interval pools, simulated runtime) *)
  r_spans : span_split option;
      (** [None] when the record carries no per-request span events
          (anything but a recorder-armed serving run) *)
}

val of_runtime : Preempt_core.Runtime.t -> report
(** Analyze a runtime's current flight record against its metrics. *)

val of_dump : Preempt_core.Recorder.dump -> report
(** Analyze a decoded binary dump (no metrics cross-check). *)

val print_text : report -> unit
(** Human-readable tables on stdout. *)

val to_json : report -> string

val smoke : spawned:int list -> report -> (unit, string) result
(** The [@obs-smoke] assertions: every spawned ULT has a non-empty
    reconstructed lifecycle, at least one attribution chain completed,
    chain count matches the histogram sample count with p50s within one
    bucket, and {!Chrome_trace.of_flight} output passes
    {!Chrome_trace.validate}. *)
