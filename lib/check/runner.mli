(** Schedule exploration and fault injection over the simulator.

    [run ~budget ~strategy prog] executes [prog] under [budget]
    controller-driven schedules.  Each schedule routes every
    nondeterministic decision in the stack — engine tie-breaks,
    preemption-timer offsets, KLT-pool picks, work-steal victims, and
    (with [~faults:true]) injected faults such as coalesced timer
    signals, KLT-pool exhaustion, spurious futex wakeups and worker
    stalls — through a {!Desim.Choice.t} controller, recording every
    decision into a {!Trail.t}.  The first schedule that raises
    {!Violation} (or deadlocks, or trips a runtime assertion) is
    greedily shrunk and reported as a deterministically replayable
    counterexample.

    Programs must be re-entrant: [prog] is invoked once per schedule and
    must build all its state (kernel, runtime, threads, locks) from the
    supplied {!env}. *)

(** Raised by oracles to report an invariant violation. *)
exception Violation of string

val require : bool -> ('a, unit, string, unit) format4 -> 'a
(** [require ok fmt ...] raises {!Violation} unless [ok]. *)

(** {1 Programs under test} *)

type env = {
  eng : Desim.Engine.t;  (** fresh engine, controller already installed *)
}

type program = {
  runtime : Preempt_core.Runtime.t option;
      (** watched by the deadlock oracle *)
  ults : Preempt_core.Ult.t list;  (** threads the deadlock oracle tracks *)
  oracle : unit -> unit;
      (** runs after the engine drains; raise {!Violation} on breakage *)
}

val program :
  ?runtime:Preempt_core.Runtime.t ->
  ?ults:Preempt_core.Ult.t list ->
  ?oracle:(unit -> unit) ->
  unit ->
  program

(** {1 Oracles} *)

(** Mutual-exclusion monitor: {!Excl.critical} raises {!Violation} as
    soon as two threads are inside the same critical section. *)
module Excl : sig
  type t

  val create : string -> t

  (** [critical t f] runs [f] inside the monitor (exception-safe). *)
  val critical : t -> (unit -> 'a) -> 'a

  (** Total number of entries into the critical section. *)
  val entries : t -> int
end

(** FIFO-fairness monitor for queue locks (ticket, MCS): the lock
    under test reports the order threads arrived and the order they
    were granted the lock; {!Fifo.check} raises {!Violation} if the
    two diverge. *)
module Fifo : sig
  type t

  val create : string -> t

  (** [arrived t k] records that request [k] joined the queue. *)
  val arrived : t -> int -> unit

  (** [granted t k] records that request [k] acquired the lock. *)
  val granted : t -> int -> unit

  (** Raises {!Violation} unless grants follow arrival order. *)
  val check : t -> unit
end

(** Raises unless every spawned thread finished. *)
val all_finished : Preempt_core.Runtime.t -> unit

(** Raises if the runtime recorded more sync blocks than wakeups
    (requires [metrics_enabled]). *)
val no_lost_wakeups : Preempt_core.Runtime.t -> unit

(** {1 Strategies} *)

type strategy =
  | Random_walk  (** independent uniform pick at every choice point *)
  | Pct of int
      (** PCT-style: default schedule with [d] randomly placed change
          points that force a non-default pick *)
  | Dfs  (** exhaustive depth-first enumeration (small programs only) *)
  | Dpor
      (** exhaustive with dynamic partial-order reduction
          (Flanagan–Godefroid backtrack sets + sleep sets): explores
          one representative schedule per Mazurkiewicz trace of the
          {e labeled} events.  Programs label their steps with engine
          footprints ([Engine.spawn ~footprint] /
          [Engine.set_footprint]); two events are dependent iff their
          footprints share a comma-separated atom.  Unlabeled events
          are assumed to commute with everything, so the reduction is
          sound relative to the program's labeling (the loom-style
          "declare your shared accesses" contract). *)
  | Replay of Trail.t  (** replay a recorded trail; beyond it, defaults *)

val strategy_name : strategy -> string

(** {1 Running} *)

type counterexample = {
  cx_message : string;  (** what went wrong *)
  cx_seed : int;  (** chooser seed of the failing schedule *)
  cx_strategy : string;  (** strategy that found it ({!strategy_name}) *)
  cx_budget : int;  (** budget of the run that found it *)
  cx_schedule : int;  (** 0-based index of the failing schedule *)
  cx_faults : bool;  (** fault injection was enabled *)
  cx_trail : Trail.t;  (** shrunk trail; replay with [Replay cx_trail] *)
  cx_trace : string;
      (** Chrome-trace JSON of the shrunk failing run, rendered from
          [cx_flight]; empty when [cx_flight] is *)
  cx_flight : string;
      (** binary flight-record dump of the shrunk failing run — empty
          unless the program's runtime had its {!Preempt_core.Recorder}
          enabled; decode with {!Preempt_core.Recorder.decode} or
          [repro observe --load] *)
}

type report = {
  schedules : int;  (** schedules actually executed *)
  pruned : int;
      (** [Dpor] only: executions abandoned mid-schedule because their
          next step was in the sleep set (trace already covered) *)
  exhausted : bool;  (** DFS/DPOR only: the whole space was covered *)
  result : [ `Ok | `Violation of counterexample ];
}

(** Multi-line human-readable counterexample summary. *)
val describe : counterexample -> string

(** [run ~budget ~strategy prog] explores up to [budget] schedules.
    All schedules share one fixed engine seed; [seed] (default 1) only
    drives the chooser, so counterexamples are replayable from
    [(seed, strategy, budget)] alone.  [faults] (default false) enables
    fault injection.  [jobs] (default 1) fans [Random_walk] / [Pct]
    exploration across that many domains; the reported counterexample
    is the first-violating schedule index regardless of job count, and
    shrinking runs sequentially afterwards, so results are identical to
    [jobs:1] (other strategies ignore [jobs]).  [until] / [max_events]
    bound each schedule; [deadlock_after] (virtual seconds, default
    0.02) is how long every tracked thread must stay blocked before the
    watchdog reports a deadlock; [max_shrink_replays] bounds the
    shrinking phase. *)
val run :
  ?seed:int ->
  ?faults:bool ->
  ?jobs:int ->
  ?max_events:int ->
  ?until:float ->
  ?deadlock_after:float ->
  ?max_shrink_replays:int ->
  budget:int ->
  strategy:strategy ->
  (env -> program) ->
  report

(** Re-run a counterexample's shrunk trail (deterministic). *)
val replay : counterexample -> (env -> program) -> report

(** [shrink ~replay ~max_replays trail msg] greedily shrinks a failing
    trail toward the default schedule: phase 1 binary-searches the
    shortest failing prefix, phase 2 zeroes chunks of forced picks in
    halving sizes, stopping early once nothing is left to zero.
    [replay cand] must re-execute candidate [cand] and return the
    observed trail and message if it still fails.  Returns the best
    trail, its message, and the number of replays spent (exposed so
    tests can pin the shrinker's cost). *)
val shrink :
  replay:(Trail.t -> (Trail.t * string) option) ->
  max_replays:int ->
  Trail.t ->
  string ->
  Trail.t * string * int
