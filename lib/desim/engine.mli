(** Discrete-event simulation engine with effects-based processes.

    The engine owns a virtual clock and an event heap.  Simulation code
    runs as {e processes}: ordinary OCaml functions that perform the
    effects below to advance virtual time or to suspend until woken.
    Event callbacks and process resumptions are totally ordered by
    [(time, insertion sequence)], so a run is deterministic.

    Processes are resumed through the event heap rather than inline, so
    waking another process never grows the waker's stack. *)

type t

(** Handle to a scheduled event, used for cancellation. *)
type event

exception Deadlock of string
(** Raised by {!run} when [detect_quiescence] callbacks report stuck
    processes after the heap drains (see {!set_quiescence_check}). *)

val create : ?seed:int -> unit -> t

(** Simulation clock, in seconds. *)
val now : t -> float

(** Root RNG of this engine ({!Rng.split} it per component). *)
val rng : t -> Rng.t

(** [set_controller t c] installs (or removes) a schedule controller.
    With a controller, a tie of [n] equal-timestamp events becomes a
    choice point (tag ["engine.tie"]): the controller picks which event
    fires first instead of the FIFO default.  Other simulator layers
    (kernel timers, futexes, the runtime's schedulers) consult the same
    controller for their own choice points.  [None] (the default)
    restores the historical deterministic order. *)
val set_controller : t -> Choice.t option -> unit

(** The installed schedule controller, if any. *)
val controller : t -> Choice.t option

(** [set_observer t f] installs (or removes) an event observer: a hook
    through which layers built on the engine (the simulated kernel)
    report int-coded events [f ts code a b] to a flight recorder owned
    by a layer they cannot depend on (the runtime).  [None] (the
    default) reduces every emit site to a single option check. *)
val set_observer : t -> (float -> int -> int -> int -> unit) option -> unit

(** The installed event observer, if any. *)
val observer : t -> (float -> int -> int -> int -> unit) option

(** [after t dt f] schedules callback [f] to run [dt >= 0] seconds from
    now.  Callbacks run outside any process context.  [footprint]
    (default [""]) labels which shared state the callback touches, for
    partial-order reduction — see {!event_parent}. *)
val after : ?footprint:string -> t -> float -> (unit -> unit) -> event

(** [at t time f] schedules [f] at absolute [time >= now]. *)
val at : ?footprint:string -> t -> float -> (unit -> unit) -> event

(** [post_after t dt f] schedules [f] at [dt >= 0] seconds from now with
    no cancellation handle — the zero-allocation fast path for events
    that are never cancelled (wakeups, resumptions, spawns). *)
val post_after : ?footprint:string -> t -> float -> (unit -> unit) -> unit

(** [cancel ev] prevents a pending event from firing.  Returns [false]
    if it already fired or was cancelled. *)
val cancel : event -> bool

(** [spawn t name f] creates a process running [f ()].  It starts at the
    current time, after already-queued events.  An exception escaping
    [f] aborts the whole run.  [footprint] (default [""]) labels the
    process's steps for partial-order reduction; change it from inside
    the process with {!set_footprint}. *)
val spawn : ?footprint:string -> t -> string -> (unit -> unit) -> unit

(** Number of spawned processes that have not yet returned. *)
val live_processes : t -> int

(** Names of spawned processes that have not yet returned (testing aid). *)
val live_process_names : t -> string list

(** [run t] processes events until the heap is empty or [until] is
    reached.  [max_events] guards against runaway simulations.
    @raise Deadlock if the heap drains while a quiescence check fails. *)
val run : ?until:float -> ?max_events:int -> t -> unit

(** [set_quiescence_check t f] registers [f]; when the heap drains with
    live processes remaining, [f ()] should describe why that is an
    error (returning [Some msg] raises {!Deadlock}) or [None] to accept
    it (e.g. daemon processes). Default: accept. *)
val set_quiescence_check : t -> (unit -> string option) -> unit

(** Total events processed so far. *)
val events_processed : t -> int

(** [due_now t] is [true] while some pending event is due at the current
    time, i.e. it would be dispatched before any later one.  From inside
    an event callback, [false] means the next event popped is one the
    callback itself pushes at [now]; the simulated kernel's idle-poll
    fast path ([Kernel.spin]) rests on that. *)
val due_now : t -> bool

(** {1 Event metadata — schedule-exploration support}

    While a controller is installed, every pushed event is recorded
    with a {e footprint} (a comma-separated set of atoms naming the
    shared state its step touches; [""] = unlabeled) and a {e parent}
    (the id of the event being dispatched when the push happened, [-1]
    for pushes from outside the dispatch loop).  Event ids are heap
    insertion sequence numbers: stable, unique per run, and the same
    ids the controller sees, with their footprints, in [alts] and
    [fired].  Without a controller nothing is recorded and
    {!event_parent} returns [-1]. *)

(** Parent (creating event) of event [seq]; [-1] if unknown. *)
val event_parent : t -> int -> int

(** {1 Effects — to be performed from process context only} *)

(** [delay t dt] suspends the current process, one of [t]'s, for [dt]
    virtual seconds.  When the process's resumption would be the next
    event dispatched anyway (no controller, wake time strictly before
    every queued event and within [run]'s [until] and [max_events]), the
    clock advances in place and the call returns without suspending;
    the event count and the order of every other event are as if it had
    suspended. *)
val delay : t -> float -> unit

(** [block register] suspends the current process; [register resume] is
    called immediately with a one-shot [resume] function that any event
    callback (or other process) may later call to resume the process
    with a value. Calling [resume] twice raises [Invalid_argument]. *)
val block : (('a -> unit) -> unit) -> 'a

(** The engine the current process belongs to. *)
val self_engine : unit -> t

(** Name of the current process. *)
val self_name : unit -> string

(** [set_footprint fp] relabels the current process: its subsequent
    resumption events (delay expiries, block wakeups) carry footprint
    [fp], i.e. it declares what the process's {e next} steps touch.
    Atoms are comma-separated; two events are treated as dependent by
    the DPOR explorer iff their footprints share an atom. *)
val set_footprint : string -> unit
