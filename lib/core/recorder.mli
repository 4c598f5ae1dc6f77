(** Flight recorder: bounded event rings, allocated when first enabled,
    plus the post-mortem passes built on them.

    One ring per worker plus a global ring (for events emitted outside
    any worker context: spawns, ready wakeups, sync operations, and the
    kernel events forwarded through {!Desim.Engine.set_observer}).  Each
    ring keeps the last [capacity] events; older ones are overwritten.
    A recorder that is never enabled holds no ring storage; the first
    [set_enabled t true] allocates every ring at full capacity, and
    they stay allocated from then on.

    The simulated runtime writes here through its one instrumentation
    stream ([Types.emit]), which also folds each event into {!Metrics};
    the real fiber runtime guards its own emits on {!field:on}.  A
    disabled recorder costs the site one boolean load; an enabled
    {!emit} is a modulo index and four array stores.  Everything else in
    this module — decoding, lifecycle reconstruction, latency
    attribution, anomaly detection, the binary dump — runs post-mortem. *)

(** {1 Event codes}

    Raw events are [(ts, code, a, b)].  The per-code meaning of [a]/[b]
    is given below; [a] is a ULT uid for all runtime lifecycle codes. *)

val ev_spawn : int
(** ULT created ([a] = uid). Global ring. *)

val ev_ready : int
(** ULT enqueued runnable ([a] = uid). Global ring (wakers may be
    outside worker context). *)

val ev_run : int
(** ULT starts running on a worker ([a] = uid). Worker ring. *)

val ev_preempt : int
(** ULT preempted ([a] = uid, [b] = 0 signal-yield / 1 KLT-switch). *)

val ev_yield : int
(** Voluntary yield ([a] = uid). *)

val ev_block : int
(** ULT blocks in the scheduler ([a] = uid). *)

val ev_resume : int
(** Bound ULT resumed after a KLT switch ([a] = uid). *)

val ev_finish : int
(** ULT body returned ([a] = uid). Global ring. *)

val ev_steal : int
(** ULT migrated by work stealing ([a] = uid, [b] = victim pool). *)

val ev_sig_post : int
(** Preemption signal posted towards a worker ([a] = rank, [b] = 0
    timer-origin / 1 forwarded).  Timestamp is the value the runtime's
    latency instrumentation uses as t0. *)

val ev_preempt_req : int
(** Signal handler flagged a preemption ([a] = uid of the running ULT);
    t1 of the attribution chain. *)

val ev_preempt_done : int
(** The post-switch thread is running and the end-to-end latency sample
    was recorded ([a] = next uid, [b] = latency in ns); t3. *)

val ev_sync_block : int
(** ULT blocked on a usync primitive ([a] = uid). Global ring. *)

val ev_sync_wake : int
(** ULT woken by a usync primitive ([a] = uid). Global ring. *)

val ev_klt_remap : int
(** Worker continued on a fresh KLT after switching away from a bound
    thread ([a] = new klt id). *)

val ev_preempt_declined : int
(** A KLT-switching preemption found no spare KLT, so the flagged
    thread runs on and the KLT creator is asked for one ([a] = uid).
    It ends the preempt-req chain without a switch, which {!attribute}
    does not count as a lost preemption. *)

(** {2 Kernel event codes}

    Forwarded through the engine observer into the global ring.  These
    are bound to [Oskern.Kernel]'s observer codes, which own the
    numbers (16-21, then 31 up). *)

val ev_timer_fire : int
(** Kernel: interval timer expiry ([a] = target klt id, [-1] skipped,
    [b] = cumulative fires). Global ring. *)

val ev_sig_deliver : int
(** Kernel: signal handler about to run ([a] = klt id, [b] = signo). *)

val ev_futex_wait : int
(** Kernel: KLT sleeps on a futex ([a] = klt id). *)

val ev_futex_wake : int
(** Kernel: futex wake ([a] = woken, [b] = requested). *)

val ev_klt_dispatch : int
(** Kernel: KLT placed on a core ([a] = klt id, [b] = core). *)

val ev_klt_block : int
(** Kernel: KLT blocked, releasing its core ([a] = klt id). *)

val ev_klt_exit : int
(** Kernel: KLT exited ([a] = klt id, [b] = the core it held, [-1]
    none). *)

val ev_klt_preempt : int
(** Kernel: KLT preempted off its core and requeued ([a] = klt id,
    [b] = the core it left). *)

val ev_klt_migrate : int
(** Kernel: KLT about to be dispatched on a core other than its last
    ([a] = klt id, [b] = the new core). *)

val ev_newidle_pull : int
(** Kernel: a newly idle core pulled a queued KLT ([a] = klt id,
    [b] = the pulling core). *)

val ev_balance_move : int
(** Kernel: periodic load balancing moved a queued KLT ([a] = klt id,
    [b] = its new core). *)

(** {2 Real fiber runtime codes} *)

val ev_pool_steal : int
(** Real fiber runtime: successful steal attributed to sub-pools
    ([a] = thief sub-pool id, [b] = victim sub-pool id; [a = b] is a
    same-sub-pool steal, [a <> b] cross-sub-pool overflow). *)

val ev_quantum_change : int
(** Real fiber runtime, adaptive pool: a worker's preemption quantum
    moved ([a] = worker id, [b] = new quantum in nanoseconds).  Emitted
    by that worker at its own quantum expiry, into its own ring, so
    every ring stays single-writer. *)

(** {2 Per-request span codes}

    Emitted by the serving workload ([lib/serve]) through
    [Fiber.emit_flight]; [a] is always the request id and the ring an
    event lands in names the worker that emitted it.  Together the six
    codes decompose a request's sojourn into queueing (arrival ->
    dispatch), service (dispatch -> done minus yields) and
    preemption-overhead (each preempt -> resume gap). *)

val ev_req_arrival : int
(** Request's {e scheduled} arrival ([a] = request id, [b] = service
    class, 0 short / 1 long).  Emitted by the injector with the
    schedule's offset as the timestamp, so injector lateness shows up
    as arrival -> enqueue gap. *)

val ev_req_enqueue : int
(** Request submitted to the pool ([a] = request id). *)

val ev_req_dispatch : int
(** First instruction of the request body ([a] = request id). *)

val ev_req_preempt : int
(** Request found its worker's quantum over and is about to yield
    ([a] = request id). *)

val ev_req_resume : int
(** Request running again after a preemption yield ([a] = request
    id). *)

val ev_req_done : int
(** Request completed ([a] = request id, [b] = measured sojourn in
    nanoseconds — derived from the same clock read as the workload's
    latency sample, so span totals and the sojourn histogram agree). *)

val ev_steal_batch : int
(** Real fiber runtime: size of a successful batched raid ([a] = tasks
    claimed in the raid, counting the one the thief runs itself;
    [b] = victim sub-pool id).  Emitted alongside {!ev_pool_steal} —
    every raid carries both events — and folded by [repro observe]
    into the steal-split batch-size histogram. *)

val code_name : int -> string
(** Short stable name of an event code (["spawn"], ["preempt-req"], …). *)

(** {1 Rings} *)

type ring = {
  r_ts : float array;
  r_code : int array;
  r_a : int array;
  r_b : int array;
  mutable r_count : int;  (** total events ever emitted to this ring *)
}

type t = private {
  mutable on : bool;
      (** write-enable flag, read directly by emit sites.  Set only
          through {!set_enabled}, which allocates the rings first. *)
  capacity : int;
  n_rings : int;
  mutable rings : ring array;
      (** index = worker rank; last ring is global.  Empty until the
          first [set_enabled t true]. *)
}

val create : n_workers:int -> capacity:int -> t
(** A disabled recorder of [n_workers + 1] rings of [capacity] events
    each.  No ring storage is allocated until {!set_enabled} first
    turns it on.
    @raise Invalid_argument if either argument is [<= 0]. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Turning the recorder on the first time allocates all its rings.
    Emits from another domain must be ordered after that call, for
    example by making it before [Domain.spawn]. *)

val capacity : t -> int

val n_rings : t -> int

val global_ring : t -> int
(** Index of the global (non-worker) ring, always [n_rings t - 1]. *)

val total_emitted : t -> int
(** Events emitted over the recorder's lifetime (not just retained). *)

val overwritten : t -> int -> int
(** [overwritten t ring] — events of [ring] lost to wraparound
    (emitted past [capacity], overwriting the oldest records).  Zero
    until the ring wraps. *)

val total_overwritten : t -> int
(** Sum of {!overwritten} over all rings. *)

val emit : t -> int -> float -> int -> int -> int -> unit
(** [emit t ring ts code a b].  No-op when disabled.  Hot paths should
    guard on [t.on] themselves and call this only when enabled. *)

(** {1 Decoding} *)

type event = {
  e_ts : float;
  e_ring : int;
  e_seq : int;  (** emission index within its ring (monotone) *)
  e_code : int;
  e_a : int;
  e_b : int;
}

val ring_events : t -> int -> event array
(** Retained events of one ring, oldest first. *)

val events : t -> event array
(** All retained events merged, ordered by [(ts, ring, seq)]. *)

(** {1 Binary dump}

    The crash-dump artifact: [lib/check] writes one next to a
    counterexample trail, and [repro observe --load] decodes it
    offline.  Format: ["FLTREC01"] magic, ring count, capacity, then
    per-ring headers and fixed 28-byte records (little-endian). *)

val encode : t -> string

val save : t -> path:string -> unit

type dump = {
  d_n_rings : int;
  d_capacity : int;
  d_events : event array;
  d_overwritten : int array;
      (** per ring: events lost to wraparound before the dump was
          taken, recovered from the ring headers' [total_count -
          stored] (no format change) — lets analyses label truncated
          attributions instead of presenting them as complete *)
}

val decode : string -> (dump, string) result

val load : path:string -> (dump, string) result

(** {1 Lifecycle reconstruction} *)

type phase = P_ready | P_running | P_bound | P_blocked | P_finished

val phase_name : phase -> string

type span = { s_phase : phase; s_from : float; s_to : float }
(** [s_to] is NaN for a span still open when recording stopped. *)

type lifecycle = {
  lc_uid : int;
  mutable lc_spawned : float;  (** NaN if the spawn fell off the ring *)
  mutable lc_finished : float;  (** NaN if unfinished (or lost) *)
  mutable lc_runs : int;
  mutable lc_preempts : int;
  mutable lc_yields : int;
  mutable lc_blocks : int;
  mutable lc_steals : int;
  mutable lc_run_time : float;
  mutable lc_spans : span list;  (** chronological *)
  mutable lc_open : (phase * float) option;  (** internal *)
}

val lifecycles : event array -> lifecycle list
(** Replays the merged event stream into one state machine per ULT.
    Sorted by uid. *)

(** {1 Preemption-latency attribution}

    Each worker holds at most one measured preemption at a time (the
    runtime's [measure_preempt] latch), so within one worker's ring the
    chain [sig-post (t0) -> preempt-req (t1) -> preempt (t2) ->
    preempt-done (t3)] pairs up exactly.  Stage durations sum to
    [t3 - t0] — the same sample, from the same events, that {!Metrics}
    folds into its signal-to-switch histogram. *)

type chain = {
  at_worker : int;
  at_uid : int;  (** the preempted thread *)
  at_next_uid : int;  (** the thread running after the switch *)
  at_mode : int;  (** 0 signal-yield, 1 KLT-switch, -1 no switch seen *)
  at_t0 : float;  (** when the preempting signal was posted *)
  at_fire_to_handler : float;  (** t1 - t0 *)
  at_handler_to_switch : float;  (** t2 - t1 *)
  at_switch_to_run : float;  (** t3 - t2 *)
}

val chain_total : chain -> float
(** Sum of the three stages = end-to-end latency [t3 - t0]. *)

type anomaly =
  | Never_landed of { an_worker : int; an_t0 : float; an_uid : int }
      (** a preemption was flagged but no switch ever completed *)
  | Coalesced of { an_worker : int; an_at : float; an_gap : float }
      (** gap between consecutive timer posts > 1.75 x interval *)
  | Starved of { an_uid : int; an_ready : float; an_wait : float }
      (** a ready thread waited more than [starve_after] intervals *)

val anomaly_to_string : anomaly -> string

val attribute : n_workers:int -> event array -> chain list * anomaly list
(** Walks each worker ring in order; returns completed chains
    (chronological) and the never-landed anomalies found on the way.
    A chain that {!ev_preempt_declined} ends is neither. *)

val detect_anomalies :
  n_workers:int -> interval:float -> ?starve_after:float -> event array -> anomaly list
(** Timer-coalescing and starvation scans.  [interval] is the configured
    preemption interval; [starve_after] (default 8.) is the ready-to-run
    wait threshold in multiples of [interval]. *)
