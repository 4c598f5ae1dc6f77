(** Parallel-phase profile of an HPGMG-FV-style full-multigrid solve.

    The thread-packing experiment (paper Fig. 8) depends on the
    {e structure} of the solver — a long sequence of barrier-separated
    parallel phases whose sizes span orders of magnitude across levels —
    not on stencil arithmetic, so no solver runs here.  The FMG recursion
    is walked directly: starting on the coarsest level, each stage
    prolongates to the next finer level and runs two V-cycles from it.
    A V-cycle from level [l] smooths twice and restricts on each level
    down to the coarsest, solves there, then prolongates and smooths
    once on each level back up; every step is one phase.  Work per
    phase scales as [8^-level] (3D boxes), and the whole list is scaled
    to a target total CPU time. *)

type phase = {
  level : int;  (** multigrid level, 0 = finest *)
  work : float;  (** total core-seconds in this phase *)
}

(** [phases ~levels ~total_core_seconds] — FMG phase list: for each FMG
    stage, prolongation plus two V-cycles, with per-level work scaling
    as [8^-level] (3D boxes). *)
val phases : levels:int -> total_core_seconds:float -> phase list

val total_work : phase list -> float

val count : phase list -> int
