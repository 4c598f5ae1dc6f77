(** A real, executable M:N fiber runtime on OCaml 5 effects + domains —
    the native-OCaml counterpart of the paper's M:N threading model.

    M fibers are multiplexed over N domains ("workers") organized into
    {e named sub-pools}: each sub-pool pins a subset of the workers and
    carries its own pluggable {!Scheduler.t} (work stealing by default,
    or the ported packing / in-situ priority policies).  Spawns may
    target a sub-pool ([spawn ~pool:"analysis"]); steals prefer
    same-sub-pool victims and overflow cross-sub-pool only when a
    member's own sub-pool has nothing runnable (and the sub-pool's
    [overflow] flag allows it).  Construction goes through the
    validating {!Config.make}.

    Scheduling is cooperative ([yield], [await]); preemption is
    {e safe-point based}: a ticker marks workers for preemption every
    [preempt_interval], and a fiber crossing a {!check} point (or an
    explicit {!yield}) is descheduled.  This is the GHC-style variant
    the paper's §5 discusses — portable OCaml cannot context-switch
    inside an asynchronous signal handler, so true signal-yield
    semantics are exercised in the simulator instead (see DESIGN.md). *)

type pool

type 'a promise

(** [make cfg] builds the pool described by a validated {!Config.t}:
    one scheduler instance per sub-pool, worker domains spawned for
    every worker but 0 (worker 0 is the caller inside {!run}), the
    preemption ticker armed if [cfg.preempt_interval] is set, and the
    flight recorder armed if [cfg.recorder_enabled].
    @raise Invalid_argument via {!Config.validate} on a hand-built
    record that does not partition the workers. *)
val make : Config.t -> pool

(** Total worker count across all sub-pools. *)
val domains : pool -> int

(** Sub-pool names, in configuration order (the first is the default
    target of {!submit}). *)
val subpools : pool -> string list

(** [run pool main] executes [main ()] as a fiber (in worker 0's
    sub-pool), with the calling thread participating as a worker, and
    returns its result.  Re-raises any exception [main] threw.  Not
    reentrant from inside a fiber. *)
val run : pool -> (unit -> 'a) -> 'a

(** Stop the worker domains and join them.  The pool cannot be reused. *)
val shutdown : pool -> unit

(** [submit pool ~pool:name body] — external submission from {e outside}
    the runtime (or from any fiber): enqueues [body] on the named
    sub-pool (default: the first one) via the scheduler's external path
    and returns its promise.  [prio] as in {!spawn}.
    @raise Invalid_argument on an unknown sub-pool name. *)
val submit : pool -> ?pool:string -> ?prio:int -> (unit -> 'a) -> 'a promise

(** {1 Fiber operations — valid only inside fibers} *)

(** Fork a child fiber.  Without [~pool], the child is a LIFO child of
    the calling worker inside the caller's own sub-pool (fork–join
    locality).  With [~pool:name], the fiber is {e submitted} to the
    named sub-pool as a whole: it takes the scheduler's external path
    even when the caller is a member, and is served like any other
    incoming request.  [prio] (default [0]) is a scheduler hint: under
    {!Scheduler.priority}, [prio > 0] marks in-situ analysis work.
    The fiber is pinned: wherever it suspends or yields, it re-enters
    its home sub-pool.  Every spawn allocates a fresh fiber and a
    fresh promise.
    @raise Invalid_argument on an unknown sub-pool name. *)
val spawn : ?pool:string -> ?prio:int -> (unit -> 'a) -> 'a promise

(** Wait for a promise; re-raises if the child failed.  Returns at
    once if the promise is already fulfilled; otherwise the calling
    fiber suspends and its worker moves on to other work until the
    promise resolves and requeues it on its home sub-pool. *)
val await : 'a promise -> 'a

val yield : unit -> unit

(** [suspend_or decide] — atomic conditional suspension, the building
    block of {!Fsync}.  [decide wake] runs on the current worker; if it
    returns [`Suspended] it must have arranged for [wake] to be called
    exactly once later (from any fiber), which reschedules this fiber
    on its home sub-pool; if it returns [`Continue] the fiber proceeds
    and [wake] must never be called. *)
val suspend_or : ((unit -> unit) -> [ `Continue | `Suspended ]) -> unit

(** Preemption safe point: yields iff the ticker has marked this worker.
    Free when no preemption is requested. *)
val check : unit -> unit

(** True once the promise is fulfilled (never blocks). *)
val is_resolved : 'a promise -> bool

(** [parallel_for ~chunk lo hi f] runs [f i] for [lo <= i < hi] across
    fibers of [chunk] iterations each ([chunk] defaults to a heuristic
    sized to the caller's sub-pool), checking the preemption flag
    between iterations. *)
val parallel_for : ?chunk:int -> int -> int -> (int -> unit) -> unit

(** Number of preemptions taken (ticker-initiated deschedules). *)
val preemptions : pool -> int

(** [parallel_map f xs] — apply [f] to every element in parallel fibers
    (one per element; use {!parallel_for} + arrays for fine-grained
    ranges). Order preserved. *)
val parallel_map : ('a -> 'b) -> 'a list -> 'b list

(** {1 Observability} *)

(** Per-sub-pool counters, aggregated racily from per-worker cells
    (stale by a few operations under load; exact once quiescent).
    Negative transients from torn reads are clamped to 0, so a
    concurrent sampler always sees well-formed counts. *)
type subpool_stats = {
  st_name : string;
  st_sched : string;  (** scheduler name, e.g. ["ws"] *)
  st_workers : int;
  st_spawned : int;  (** local forks + targeted/external submissions *)
  st_local_steals : int;  (** same-sub-pool steals by members *)
  st_overflow_in : int;  (** tasks members took from other sub-pools *)
  st_overflow_out : int;  (** tasks other sub-pools took from here *)
  st_batch_stolen : int;
      (** extra tasks batched raids flushed into members' own queues
          (beyond the one-per-raid counted by [st_local_steals] /
          [st_overflow_in]) *)
  st_recycled : int;
  st_recycle_miss : int;
  st_leapfrog : int;
      (** [st_recycled], [st_recycle_miss] and [st_leapfrog] are
          retired and always [0]: fiber recycling and joiner
          leapfrogging were removed because neither paid on the
          fork-join benchmark.  They are kept only so the benchmark's
          readers still compile. *)
  st_pending : int;  (** scheduler length snapshot *)
  st_quanta : (int * float) list;
      (** [(worker id, current preemption quantum in seconds)] per
          member, slot order.  Pinned at [preempt_interval] on a
          fixed-interval pool ([0.] without a ticker); on an adaptive
          pool ({!Config.t}[.adaptive]) it tracks the per-worker
          quantum the {!Quantum} controller last chose. *)
}

(** One entry per sub-pool, in configuration order. *)
val stats : pool -> subpool_stats list

(** True iff the pool was built with [Config.adaptive] (per-worker
    quanta driven by the {!Quantum} controller). *)
val adaptive : pool -> bool

(** The pool's flight recorder (armed via [Config.recorder]): every
    successful steal emits [Recorder.ev_pool_steal] with (thief
    sub-pool, victim sub-pool) into the thief's worker ring, so a saved
    dump lets [repro observe --load] attribute cross-sub-pool overflow
    separately from local steals. *)
val recorder : pool -> Preempt_core.Recorder.t

(** The pool's live telemetry (armed via [Config.telemetry]): the
    preemption ticker samples every worker's state — run-queue depth,
    steals in/out, park/wake counts, current quantum, utilization since
    the last sample — into fixed-capacity per-worker time-series rings
    every [Config.telemetry_every] sweeps.  The live view ([repro top])
    reads it while the pool runs; disabled it costs one boolean load
    per ticker sweep and nothing on any worker's path. *)
val telemetry : pool -> Preempt_core.Telemetry.t

(** Wall-clock origin of recorder and telemetry timestamps (the
    instant the pool was built), for callers aligning external clocks
    or emitting events with {!emit_flight}[ ~at]. *)
val clock_origin : pool -> float

(** True while the current worker's preemption flag is raised, without
    consuming it — one atomic load.  Lets a workload bracket the
    {!check} it is about to take with span events.  Benignly racy: a
    flag raised after the load is seen by the next probe.  [false]
    outside a worker. *)
val preempt_pending : unit -> bool

(** [emit_flight ?at code a b] — emit a flight event from inside a
    fiber into the {e current worker's} ring (a fiber runs on exactly
    one worker at a time, so rings stay single-writer).  No-op outside
    a worker or with the recorder disabled.  [at] is an absolute
    wall-clock time overriding "now", for events whose logical time
    precedes the call (e.g. a request's scheduled arrival); it is
    translated to the recorder's clock via {!clock_origin}.  The
    serving workload uses this for its per-request span codes
    ([Recorder.ev_req_arrival] ... [ev_req_done]). *)
val emit_flight : ?at:float -> int -> int -> int -> unit

(** [telemetry_observe ~channel v] — add a sojourn sample to the
    current worker's sliding window for [channel] (the serving
    workload uses one channel per service class).  Single-writer per
    window by construction; no-op outside a worker or with telemetry
    disabled. *)
val telemetry_observe : channel:int -> float -> unit
