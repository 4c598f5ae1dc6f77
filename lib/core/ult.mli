(** Operations available {e inside} a user-level thread's body.

    ULT bodies are plain OCaml functions; these operations are effects
    interpreted by the worker that is currently executing the thread.
    Calling them outside a ULT raises [Effect.Unhandled]. *)

type t = Types.ult

(** Consume [d] seconds of CPU.  This is the (only) preemption point:
    a signal-yield or KLT-switching thread can be preempted while
    computing, a nonpreemptive thread cannot. *)
val compute : float -> unit

(** Cooperative yield: back to the scheduler, thread returns to a pool. *)
val yield : unit -> unit

(** [blocking_io d] — a blocking system call of wall duration [d] (no
    CPU consumed), restarted transparently when preemption signals
    interrupt it (SA_RESTART, paper §3.5.1).  Note that it blocks the
    {e worker's KLT}, like real M:N runtimes.  Returns the number of
    signal-induced restarts. *)
val blocking_io : float -> int

(** Current virtual time. *)
val now : unit -> float

(** The thread's own record (identity, statistics). *)
val self : unit -> t

(** [suspend register] blocks the calling thread; [register u] runs
    immediately (still on the worker) and must arrange for
    [Runtime.ready] to be called on [u] later.  Building block for
    user-level synchronization ({!Usync}). *)
val suspend : (Types.ult -> unit) -> unit

val name : t -> string

val finished : t -> bool

(** True while the thread is suspended on user-level synchronization
    (the state a deadlock oracle watches for). *)
val blocked : t -> bool

(** Number of times this thread has been preempted. *)
val preemptions : t -> int

(** {1 Effects (interpreted by the runtime's worker loop)} *)

type _ Effect.t +=
  | Compute : float -> unit Effect.t
  | Blocking_io : float -> int Effect.t
  | Yield : unit Effect.t
  | Now : float Effect.t
  | Self : Types.ult Effect.t
  | Suspend : (Types.ult -> unit) -> unit Effect.t
