(** A real, executable M:N fiber runtime on OCaml 5 effects + domains —
    the native-OCaml counterpart of the paper's M:N threading model.

    M fibers are multiplexed over N domains ("workers") organized into
    {e named sub-pools}: each sub-pool pins a subset of the workers and
    schedules them by Chase–Lev work stealing over its own
    {!Scheduler} queues.  Spawns may target a sub-pool
    ([spawn ~pool:"analysis"]); steals prefer same-sub-pool victims and
    overflow cross-sub-pool only when a member's own sub-pool has
    nothing runnable (and the sub-pool's [overflow] flag allows it).
    In-situ isolation (paper §6) is a sub-pool with [~overflow:false].
    The paper's packing and priority schedulers are reproduced in the
    simulator only.  Construction goes through the validating
    {!Config.make}.

    Scheduling is cooperative ([yield], [await]); preemption is
    {e safe-point based}: each worker times its own quantum of
    [preempt_interval] from its {!check} points, and a fiber crossing a
    {!check} after its worker's quantum has ended (or an explicit
    {!yield}) is descheduled.  There is no timer thread or signal.
    This is the GHC-style variant the paper's §5 discusses — portable
    OCaml cannot context-switch inside an asynchronous signal handler,
    so true signal-yield semantics are exercised in the simulator
    instead (see DESIGN.md). *)

type pool

type 'a promise

(** [make cfg] builds the pool described by a validated {!Config.t}:
    one set of run queues per sub-pool, worker domains spawned for
    every worker but 0 (worker 0 is the caller inside {!run}), each
    worker's first quantum started if [cfg.preempt_interval] is set,
    and the flight recorder armed if [cfg.recorder_enabled].
    @raise Invalid_argument via {!Config.validate} on a hand-built
    record that does not partition the workers. *)
val make : Config.t -> pool

(** Total worker count across all sub-pools. *)
val domains : pool -> int

(** [run pool main] executes [main ()] as a fiber (in worker 0's
    sub-pool), with the calling thread participating as a worker, and
    returns its result as soon as [main] finishes.  Re-raises any
    exception [main] threw.  Not reentrant from inside a fiber.
    [main] is queued before the calling thread starts serving as worker
    0, so another member of that sub-pool, or of a sub-pool with
    [overflow] on, can take it and run it instead.

    Queued work outlives [run]: fibers that [main] spawned and never
    awaited stay queued when it returns.  Workers 1 … n−1 keep running
    them between runs; worker 0 serves its queues only inside [run],
    so on a 1-domain pool they run during the next [run]. *)
val run : pool -> (unit -> 'a) -> 'a

(** Stop the worker domains and join them.  The pool cannot be reused.
    Each worker stops at its next scheduling step, so tasks still
    queued are never run: [shutdown] returns without waiting for them,
    and {!stats}[.st_pending] still counts them afterwards. *)
val shutdown : pool -> unit

(** [submit pool ~pool:name body] — external submission from {e outside}
    the runtime (or from any fiber): enqueues [body] on the named
    sub-pool (default: the first one) via the scheduler's external path
    and returns its promise.
    @raise Invalid_argument on an unknown sub-pool name. *)
val submit : pool -> ?pool:string -> (unit -> 'a) -> 'a promise

(** {1 Fiber operations — valid only inside fibers} *)

(** Fork a child fiber.  Without [~pool], the child is a LIFO child of
    the calling worker inside the caller's own sub-pool (fork–join
    locality).  With [~pool:name], the fiber is {e submitted} to the
    named sub-pool as a whole: it takes the scheduler's external path
    even when the caller is a member, and is served like any other
    incoming request.  The fiber is pinned: wherever it suspends or yields, it re-enters
    its home sub-pool.

    A local spawn (no [~pool]) queues the child as a claimable entry;
    its fiber (stack and effect handler) is built only if a worker pops
    or steals that entry.  If the joiner gets to it first, {!await}
    runs the child inline instead (see there).  [~pool] spawns and
    {!submit} always start the child as a fiber of its own.
    @raise Invalid_argument on an unknown sub-pool name. *)
val spawn : ?pool:string -> (unit -> 'a) -> 'a promise

(** Wait for a promise; re-raises if the child failed.  Returns at
    once if the promise is already fulfilled.

    Work-first join: if the child of a local {!spawn} has not started
    and its entry is still next at the owner end of the current
    worker's own queue, [await] removes the entry and runs the child's
    body inline, on the joiner's stack.  That entry is then never run
    by anybody else ({!Scheduler.take}).  The inline child runs inside
    the joiner's fiber: a yield, a preemption at {!check} or an
    {!Fsync} block in the child suspends the joiner with it, and both
    resume in the joiner's home sub-pool.

    Otherwise (the child was stolen, is running, or is not next) the
    calling fiber suspends and its worker moves on to other work until
    the promise resolves and requeues it on its home sub-pool.  Join
    children newest-first to keep them inline-runnable. *)
val await : 'a promise -> 'a

val yield : unit -> unit

(** [suspend_or decide] — atomic conditional suspension, the building
    block of {!Fsync}.  [decide wake] runs on the current worker; if it
    returns [`Suspended] it must have arranged for [wake] to be called
    exactly once later (from any fiber), which reschedules this fiber
    on its home sub-pool; if it returns [`Continue] the fiber proceeds
    and [wake] must never be called.  An exception from [decide] is
    raised from [suspend_or] in the calling fiber; [wake] must then
    never be called either. *)
val suspend_or : ((unit -> unit) -> [ `Continue | `Suspended ]) -> unit

(** Preemption safe point: yields iff the current worker's quantum has
    ended.  Every 64th call on a worker reads the clock against the
    worker's deadline; the others only count down, so a preemption
    comes at most 64 safe points after the deadline.  On expiry the
    worker picks its next quantum ([preempt_interval], or the
    {!Quantum} controller's choice on an adaptive pool), counts the
    preemption in its own counter, and yields.  Without
    [preempt_interval] it never reads the clock. *)
val check : unit -> unit

(** True once the promise is fulfilled (never blocks). *)
val is_resolved : 'a promise -> bool

(** [parallel_for lo hi f] runs [f i] for [lo <= i < hi] across fibers
    of about [(hi - lo) / (8 × members)] iterations each (at least one),
    where [members] is the size of the caller's sub-pool, with a
    {!check} safe point between iterations. *)
val parallel_for : int -> int -> (int -> unit) -> unit

(** Number of preemptions taken (quantum expiries at {!check}): the sum
    of {!worker_stats}[.ws_preempts]. *)
val preemptions : pool -> int

(** [parallel_map f xs] — apply [f] to every element in parallel fibers
    (one per element; use {!parallel_for} + arrays for fine-grained
    ranges).  Children are joined newest-first, so unstolen ones run
    inline; the result order is the input order. *)
val parallel_map : ('a -> 'b) -> 'a list -> 'b list

(** {1 Observability} *)

(** Per-sub-pool counters, aggregated racily from per-worker cells
    (stale by a few operations under load; exact once quiescent).
    Negative transients from torn reads are clamped to 0, so a
    concurrent sampler always sees well-formed counts. *)
type subpool_stats = {
  st_name : string;
  st_workers : int;
  st_spawned : int;  (** local forks + targeted/external submissions *)
  st_local_steals : int;  (** same-sub-pool steals by members *)
  st_overflow_in : int;
      (** successful overflow raids by members on other sub-pools;
          a raid's tasks beyond the first are in [st_batch_stolen] *)
  st_overflow_out : int;  (** tasks other sub-pools took from here *)
  st_inline_joins : int;
      (** awaits by members that found their child never started and
          ran it inline, in the joiner's fiber (work-first joins) *)
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
          fixed-interval pool ([0.] without one); on an adaptive
          pool ({!Config.t}[.adaptive]) it tracks the per-worker
          quantum the {!Quantum} controller last chose. *)
}

(** One entry per sub-pool, in configuration order: the fold of one
    {!worker_stats} read by sub-pool, plus the sub-pool's own
    submission, steal-away and queue-length counts. *)
val stats : pool -> subpool_stats list

(** Per-worker counters: one racy read of the fields each worker
    writes for itself (no atomics, no locks), clamped like
    {!subpool_stats}.  Cumulative since {!make}; stale by a few
    operations under load, exact once the pool is quiescent.  This is
    the one counter set behind {!stats}, {!preemptions} and the live
    view ([repro top]), which derives utilization by differencing
    [ws_idle_s] between its own reads. *)
type worker_stats = {
  ws_worker : int;  (** global worker id *)
  ws_subpool : string;  (** name of the worker's sub-pool *)
  ws_spawned : int;  (** local forks *)
  ws_local_steals : int;  (** same-sub-pool steals *)
  ws_overflow_in : int;  (** successful overflow raids on other sub-pools *)
  ws_inline_joins : int;  (** awaits that ran their child inline *)
  ws_batch_stolen : int;  (** extra tasks batched raids brought home *)
  ws_parks : int;  (** condvar sleeps *)
  ws_wakes : int;  (** wakes after a sleep *)
  ws_idle_s : float;  (** seconds spent parked *)
  ws_quantum : float;  (** current preemption quantum, as in [st_quanta] *)
  ws_preempts : int;  (** quantum expiries taken at {!check} *)
}

(** One entry per worker, in worker-id order. *)
val worker_stats : pool -> worker_stats list

(** The pool's flight recorder (armed via [Config.recorder]): every
    successful steal emits [Recorder.ev_pool_steal] with (thief
    sub-pool, victim sub-pool) into the thief's worker ring, so a saved
    dump lets [repro observe --load] attribute cross-sub-pool overflow
    separately from local steals. *)
val recorder : pool -> Preempt_core.Recorder.t

(** Wall-clock origin of recorder timestamps (the instant the pool was
    built), for callers aligning external clocks or emitting events
    with {!emit_flight}[ ~at]. *)
val clock_origin : pool -> float

(** True iff the current worker's quantum has ended — one clock read.
    When it returns [true] it arms the next {!check} to take the expiry,
    so a workload can bracket that {!check} with span events.  [false]
    outside a worker and on a pool without [preempt_interval]. *)
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
