(** The M:N preemptive threading runtime — the paper's contribution.

    M user-level threads ({!Ult.t}) are multiplexed over N workers, each
    pinned to a core.  Nonpreemptive workers map 1:1 to KLTs; when a
    KLT-switching thread is preempted, its worker is remapped to a fresh
    KLT from a pool while the old KLT sleeps bound to the thread (paper
    Figs. 1–3).  The three thread types coexist freely in one runtime.

    Typical use:
    {[
      let eng = Engine.create () in
      let kernel = Kernel.create eng Machine.skylake in
      let rt = Runtime.create kernel ~n_workers:56
                 ~config:{ Config.default with
                           timer_strategy = Config.Per_worker_aligned;
                           interval = 1e-3 } in
      let _u = Runtime.spawn rt ~kind:Types.Klt_switching body in
      Runtime.start rt;
      Engine.run eng        (* returns once all threads finished *)
    ]} *)

type t = Types.rt

val create :
  ?config:Config.t ->
  ?scheduler:Types.scheduler ->
  Oskern.Kernel.t ->
  n_workers:int ->
  t

(** Spawn the worker KLTs, the KLT creator, and the preemption timers. *)
val start : t -> unit

(** Request shutdown: cancels timers, wakes parked KLTs and suspended
    workers.  Called automatically when the last thread finishes and
    [config.autostop] is set. *)
val stop : t -> unit

(** [spawn rt body] creates a user-level thread.  [kind] defaults to
    {!Types.Nonpreemptive}; [priority] (smaller = more urgent) defaults
    to 0; [home] selects the pool the thread starts in (default:
    round-robin).  Callable before or after {!start}, from ULT bodies,
    or from event context. *)
val spawn :
  t ->
  ?kind:Types.thread_kind ->
  ?priority:int ->
  ?footprint:float ->
  ?home:int ->
  ?name:string ->
  (unit -> unit) ->
  Ult.t
(** [footprint] (default 1.0) scales the cache-refill penalty the thread
    pays when it resumes on a different worker: ~0 for threads with no
    working set (spin loops), 1 for cache-filling kernels. *)

(** Move a thread blocked by {!Ult.suspend} back to the ready pools. *)
val ready : t -> Ult.t -> unit

(** {1 Thread packing (paper §4.2)} *)

(** [set_active_workers rt n]: workers with rank >= n suspend at their
    next scheduling point; shrinking and growing are both allowed. *)
val set_active_workers : t -> int -> unit

(** Re-arm the preemption timers at a new interval ("configurable
    preemption intervals", paper §4.2).  Callable at any time. *)
val set_preemption_interval : t -> float -> unit

val preemption_interval : t -> float

val n_active : t -> int

(** {1 Introspection} *)

(** Threads spawned and not yet finished. *)
val unfinished : t -> int

val is_stopping : t -> bool

(** Per-delivery latency of preemption-timer signals: post → handler
    completion (the paper's Fig. 4 metric). *)
val interrupt_stats : t -> Desim.Stats.t

(** Latency from preemption signal to the next thread running on the
    worker (the paper's Table 1 metric). *)
val preempt_latency_stats : t -> Desim.Stats.t

(** Preemption requests honored (signals that hit a preemptive thread). *)
val preempt_signals : t -> int

(** Completed KLT-switch suspend operations. *)
val klt_switches : t -> int

(** Extra KLTs created by the KLT creator. *)
val klts_created : t -> int

(** Seconds worker [rank] spent spinning without work. *)
val worker_idle_time : t -> int -> float

(** {1 Metrics (see [docs/observability.md])} *)

(** Immutable snapshot of the runtime's {!Metrics}: per-worker event
    counters plus signal-to-switch / scheduling-delay / run-quantum
    latency histograms.  All zeros unless metrics were enabled
    ([Config.metrics_enabled] or {!set_metrics_enabled}). *)
val metrics : t -> Metrics.snapshot

val metrics_enabled : t -> bool

(** Toggle metric recording at any point (counters keep accumulating
    across toggles; take snapshots and difference them to measure an
    interval).  A wait or run slice that began while metrics were off
    takes no histogram sample. *)
val set_metrics_enabled : t -> bool -> unit

(** {1 Flight recorder (see [docs/observability.md])} *)

(** The runtime's {!Recorder}: per-worker ring buffers of timestamped
    lifecycle, preemption and kernel events.  Recording is off unless
    [Config.recorder_enabled] was set or {!set_recorder_enabled} was
    called.  Toggle it only through {!set_recorder_enabled}, which also
    sets the runtime's instrumentation guard: with the recorder and
    metrics both off, each instrumented site costs one boolean load. *)
val recorder : t -> Recorder.t

val recorder_enabled : t -> bool

(** Toggle event recording.  Enabling also installs the engine observer
    that forwards kernel events (timer fires, signal deliveries, futex
    sleeps/wakes, KLT dispatches) into the global ring; disabling
    removes it, restoring the kernel's zero-overhead path. *)
val set_recorder_enabled : t -> bool -> unit

(** All retained events, merged across rings in timestamp order. *)
val flight_events : t -> Recorder.event array

(** The binary flight-record dump ({!Recorder.encode}); decode with
    {!Recorder.decode} / [repro observe --load]. *)
val flight_dump : t -> string

val save_flight : t -> path:string -> unit
