(** Open-loop serving workload on the real fiber runtime: a seeded
    arrival process (Poisson or on/off bursty) injects short-lived
    request fibers at a configured offered rate — independent of how
    fast the pool completes them, so overload builds a real queue —
    and per-request sojourn times are recorded into
    {!Preempt_core.Metrics.Hist} histograms per service class,
    reported as p50/p99/p99.9.

    The injector is the main fiber on worker 0 (effectively the
    load-generator core: [domains - 1] workers serve); every request
    goes through [Fiber.submit]'s external path.  Sojourn is measured
    from the request's {e scheduled} arrival instant, so injector
    lateness under overload counts as queueing delay.

    See [docs/serving.md] for the workload model and how the adaptive
    preemption quantum ({!Quantum}) changes the tail under overload. *)

(** The adaptive-quantum controller (re-export of {!Fiber.Quantum}):
    [Quantum.next : stats -> float], the pure function each worker of
    an adaptive pool runs at every expiry of its own quantum. *)
module Quantum = Fiber.Quantum

type arrival =
  | Poisson  (** exponential inter-arrival gaps at [rate] *)
  | Bursty of { period : float; on_frac : float }
      (** all traffic inside the first [on_frac] of every [period]
          seconds, at [rate /. on_frac]; mean offered rate stays
          [rate] *)

type cls = Short | Long

type config = {
  rate : float;  (** offered requests/second, both classes together *)
  duration : float;  (** injection horizon, seconds *)
  long_frac : float;  (** fraction of requests in the [Long] class *)
  short_service : float;  (** spin-work seconds per [Short] request *)
  long_service : float;  (** spin-work seconds per [Long] request *)
  arrival : arrival;
  seed : int;
  domains : int;  (** pool size; worker 0 is the injector *)
  preempt_interval : float option;
  adaptive : bool;  (** per-worker adaptive quanta ({!Quantum}) *)
  quantum_min : float option;
  quantum_max : float option;
  recorder : bool;  (** arm the flight recorder for the run *)
}

(** 20k req/s Poisson for 1 s, 5% long (2 ms) / 95% short (20 us),
    2 ms fixed preemption, recorder off. *)
val default : config

(** @raise Invalid_argument (["Serve: <field> = <value> (must be ...)"])
    on a nonsensical config. *)
val validate : config -> unit

(** The run's arrival schedule as [(offset, class)] rows,
    offset-ascending — a pure function of the config (seeded), so equal
    configs give byte-identical schedules.  Validates first. *)
val schedule : config -> (float * cls) array

type class_report = {
  cr_class : cls;
  cr_offered : int;
  cr_completed : int;
  cr_mean : float;  (** seconds; [nan] when no sample completed *)
  cr_p50 : float;
  cr_p99 : float;
  cr_p999 : float;
  cr_hist : Preempt_core.Metrics.Hist.t;  (** full sojourn histogram *)
}

type report = {
  r_config : config;
  r_offered : int;
  r_completed : int;
  r_elapsed : float;  (** injection start -> all completions awaited *)
  r_short : class_report;
  r_long : class_report;
  r_preemptions : int;
  r_quantum_lo : float;  (** min worker quantum at drain time *)
  r_quantum_hi : float;  (** max worker quantum at drain time *)
  r_subpools : Fiber.subpool_stats list;
  r_flight : Preempt_core.Recorder.event array;
      (** flight events when [recorder]: steals, quantum changes, and
          per-request spans ([Recorder.ev_req_arrival] ...
          [ev_req_done]) — every request id is its schedule index, and
          its sojourn decomposes into queueing / service / preemption
          overhead from the span timestamps alone *)
}

(** A run's requests as a live view reads them while the run goes on. *)
type requests = {
  rq_schedule : (float * cls) array;  (** the run's {!schedule} *)
  rq_sojourn : float array;
      (** sojourn in seconds per request, indexed like [rq_schedule]:
          [nan] until the request completes, then written once by the
          request fiber.  A reader on another thread races with that
          single store and sees either [nan] or the final value. *)
}

(** Build the pool, inject the schedule open-loop, await every
    response, tear the pool down, and report.  Wall-clock heavy by
    design — this is the load generator, not a unit test.  [?dump]
    saves the flight record ({!Preempt_core.Recorder.save}) before
    teardown when the recorder is armed, for [repro observe --load]
    attribution.  [?on_pool] is called with the freshly built pool and
    the run's {!requests} before injection starts (the live-view attach
    point, see {!Top.attach}); the closure it returns is called after
    the run drains, before pool teardown. *)
val run :
  ?dump:string -> ?on_pool:(Fiber.pool -> requests -> unit -> unit) -> config -> report

val cls_name : cls -> string

val print_text : report -> unit

(** One-line JSON object (p50/p99/p99.9 per class, quantum range,
    preemption count). *)
val to_json : report -> string
