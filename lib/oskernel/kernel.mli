(** Simulated OS kernel: cores, kernel-level threads (KLTs), a CFS-like
    scheduler, POSIX-style signals with a contended in-kernel delivery
    lock, futexes and interval timers.

    KLT bodies run as {!Desim.Engine} processes; every function below
    marked "process context" must be called from the body of the KLT it
    operates on.  A KLT only makes progress while the scheduler has
    placed it on a core, so [compute] may take longer in virtual time
    than the amount of CPU it consumes. *)

type t

type klt

(** {1 Construction} *)

val create : Desim.Engine.t -> Machine.t -> t

val engine : t -> Desim.Engine.t

val machine : t -> Machine.t

val costs : t -> Machine.costs

val now : t -> float

(** {1 KLTs} *)

(** [spawn t ~name body] creates a KLT; [body] runs once the scheduler
    first dispatches it.  [creator], when given, is charged the
    [klt_create] cost (it must be in process context).  Default
    affinity: all cores; default nice: 0. *)
val spawn :
  t ->
  ?nice:int ->
  ?affinity:Cpuset.t ->
  ?creator:klt ->
  name:string ->
  (klt -> unit) ->
  klt

val klt_id : klt -> int

val state_name : klt -> string
(** ["created" | "runnable" | "running" | "blocked:<reason>" | "zombie"] *)

val running_core : klt -> int option

val cpu_time : klt -> float

(** [set_footprint t klt f] — relative cache working set in [0,1]
    scaling this KLT's migration penalty.  Default 1.  An M:N runtime
    sets its carrier KLTs near 0 because thread data movement is charged
    at the user level. *)
val set_footprint : t -> klt -> float -> unit

(** [set_policy t klt (`Fifo prio)] switches the KLT to POSIX SCHED_FIFO
    (real-time, runs until it blocks; higher [prio] preempts lower and
    any CFS task); [`Other] returns it to fair scheduling.  The paper's
    §4.3 notes such policies would give strict in-situ prioritization
    but need root on real systems — the simulator has no such limits, so
    the ablation is available (see bench). *)
val set_policy : t -> klt -> [ `Fifo of int | `Other ] -> unit

val policy_name : klt -> string

val set_affinity : t -> klt -> Cpuset.t -> unit
(** Re-pins a KLT.  If it is queued on a now-forbidden core it is
    migrated immediately; if it is running there it migrates at the next
    scheduling point. *)

val live_klts : t -> klt list

(** {1 Process-context operations} *)

(** [compute t klt d] consumes [d] seconds of CPU.  Pending signals are
    handled at interruption points inside. *)
val compute : t -> klt -> float -> unit

(** [compute_stoppable t klt d ~should_stop] is [compute] that re-checks
    [should_stop] after every signal delivery and scheduler preemption;
    if it returns [true] the call returns the unconsumed remainder.
    Returns [0.] when [d] was consumed in full. *)
val compute_stoppable : t -> klt -> float -> should_stop:(unit -> bool) -> float

(** What an idle poll's [step] did (see {!spin}). *)
type spin_step =
  | Spin_decline  (** did nothing; the process takes the poll's end as usual *)
  | Spin_again  (** found no work: start the next poll *)
  | Spin_stop  (** found work: resume the process to run it *)

(** [spin t klt dt ~step] is [compute t klt dt] for a scheduler's idle
    poll.  It also returns as soon as a [step] it ran returned
    [Spin_stop].

    When a poll's last chunk completes, its completion event calls
    [step] itself instead of resuming the process, provided that is
    exact: no schedule controller is installed, no other event is due
    at the same time, and [klt] is running with no deferred overhead and
    no deliverable signal.  The resume it replaces would then have been
    the very next event, so running the process's next scheduling step
    there changes no event order, no RNG draw and no float sum.  [step]
    runs in event context (it must not perform effects) and must return
    [Spin_decline], having changed nothing, wherever the process would
    do anything but poll for work.  On [Spin_again] the same event arms
    the next [dt]-second poll, so an idle poll costs one event.
    Signals, slice ends and wake-up preemptions take the path of
    {!compute}. *)
val spin : t -> klt -> float -> step:(unit -> spin_step) -> unit

(** [busy_wait t klt ~poll cond] spins, consuming CPU in [poll]-sized
    chunks, until [cond ()] holds.  Models flag-polling synchronization
    (e.g. Intel MKL barriers). *)
val busy_wait : t -> klt -> ?poll:float -> (unit -> bool) -> unit

(** [consume t klt d] burns [d] seconds of CPU with no interruption
    point (models short non-preemptible runtime sections, e.g. a
    user-level context switch). Process context. *)
val consume : t -> klt -> float -> unit

(** [add_overhead t klt d] defers [d] seconds of extra CPU cost to
    [klt]'s next compute (e.g. an affinity reset paid when a pooled KLT
    is re-attached). Callable from any context. *)
val add_overhead : t -> klt -> float -> unit

(** Blocks without consuming CPU (nanosleep-like; uninterruptible). *)
val sleep : t -> klt -> float -> unit

(** [blocking_syscall t klt ~duration ~sa_restart] models a blocking
    system call (e.g. I/O) of wall duration [duration] that signals can
    interrupt (paper §3.5.1).  Each interruption runs the handler, pays
    a kernel re-entry cost, and — with [sa_restart] — resumes the call
    for its remaining time; without it the call fails and the caller is
    told how much was left.  Returns [`Done] or [`Eintr of remaining].
    [restarts] counts interruptions either way. *)
val blocking_syscall :
  t ->
  klt ->
  duration:float ->
  sa_restart:bool ->
  [ `Done of int | `Eintr of float * int ]

(** [sched_yield]-like: go to the back of this core's runqueue. *)
val yield : t -> klt -> unit

(** [join t ~joiner target] blocks [joiner] until [target] exits. *)
val join : t -> joiner:klt -> klt -> unit

(** {1 Signals} *)

(** [sigaction t signo handler] installs the process-wide handler.  The
    handler runs in the context of the interrupted KLT, with [signo]
    blocked for its duration. *)
val sigaction : t -> int -> (t -> klt -> unit) -> unit

(** Deliver a signal from outside any KLT (timers, test harnesses). *)
val kill : t -> klt -> int -> unit

(** [pthread_kill t ~sender target signo] charges [sender] the syscall
    cost, then delivers. *)
val pthread_kill : t -> sender:klt -> klt -> int -> unit

val sigblock : t -> klt -> int -> unit

val sigunblock : t -> klt -> int -> unit

(** [pause t klt] blocks until a signal is delivered and its handler has
    run (sigsuspend-like). *)
val pause : t -> klt -> unit

(** Number of signals delivered (handlers executed) so far. *)
val signals_delivered : t -> int

(** {1 Futexes} *)

module Futex : sig
  type kernel := t

  type t

  val create : kernel -> int -> t

  val value : t -> int

  val set : t -> int -> unit

  (** [wait k klt fut ~expected] returns [`Again] immediately if the
      value differs, otherwise blocks until woken. *)
  val wait : kernel -> klt -> t -> expected:int -> [ `Ok | `Again ]

  (** [wake k ~waker fut n] wakes up to [n] waiters, charging [waker]
      (if given) the syscall cost per call.  Returns the number woken. *)
  val wake : kernel -> ?waker:klt -> t -> int -> int
end

(** {1 Interval timers} *)

module Timer : sig
  type kernel := t

  type t

  (** [create k ~first ~interval ~signo ~target ()] arms a periodic
      timer.  [target] is evaluated at each expiry, so signals can
      follow a moving target (e.g. "the current KLT of worker 3");
      [None] skips that expiry.  [first] defaults to [interval]. *)
  val create :
    kernel ->
    ?first:float ->
    interval:float ->
    signo:int ->
    target:(unit -> klt option) ->
    unit ->
    t

  val cancel : t -> unit

  val fires : t -> int
end

(** {1 Observer event codes}

    The kernel reports every event it has — timer expiries, signal
    deliveries, futex sleeps/wakes, KLTs taken on and off cores, and
    the scheduler's migrations — through the engine's observer hook
    ({!Desim.Engine.set_observer}) as [(ts, code, a, b)] records, using
    the codes below.  They are the flight recorder's own event numbers
    ([Preempt_core.Recorder.ev_timer_fire] and the rest bind to them),
    so the runtime's observer stores them unchanged.  A KLT holds a
    core from its {!obs_klt_dispatch} to the next {!obs_klt_block},
    {!obs_klt_preempt} or {!obs_klt_exit} of the same id, which is how
    [Experiments.Gantt] redraws core occupancy.  With no observer
    installed each site costs one option check. *)

(** Timer expiry evaluated: [a] = target klt id ([-1] when the expiry
    was skipped), [b] = cumulative fire count of that timer. *)
val obs_timer_fire : int

(** Signal handler about to run: [a] = klt id, [b] = signo. *)
val obs_sig_deliver : int

(** KLT goes to sleep on a futex: [a] = klt id. *)
val obs_futex_wait : int

(** Futex wake delivered: [a] = waiters woken, [b] = requested. *)
val obs_futex_wake : int

(** Scheduler placed a KLT on a core: [a] = klt id, [b] = core. *)
val obs_klt_dispatch : int

(** KLT blocks (releases its core): [a] = klt id. *)
val obs_klt_block : int

(** KLT exits: [a] = klt id, [b] = the core it held ([-1] if none). *)
val obs_klt_exit : int

(** KLT preempted off its core (slice end or wake-up preemption) and
    requeued: [a] = klt id, [b] = the core it left. *)
val obs_klt_preempt : int

(** KLT dispatched on a core other than the one it last ran on (it
    pays the cache-refill cost): [a] = klt id, [b] = the new core.
    Reported just before that dispatch. *)
val obs_klt_migrate : int

(** Newly idle core pulled a queued KLT from the busiest core:
    [a] = klt id, [b] = the pulling core. *)
val obs_newidle_pull : int

(** Periodic load balancing moved a queued KLT: [a] = klt id, [b] =
    the core it was moved to. *)
val obs_balance_move : int

(** {1 Metrics} *)

(** Sum of per-core busy time. *)
val total_busy_time : t -> float
