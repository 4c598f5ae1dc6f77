(** Ready-made buggy and correct concurrency scenarios over the
    preemptive runtime, with the verdict the checker is expected to
    reach.  Backs the [repro check] CLI subcommand and the
    [@check-smoke] alias.

    The ["shipped"] tag groups the scenarios that run lib/fiber's own
    Chase–Lev deque and [Scheduler] (compiled in lib/check/traced with
    an [Atomic] whose every access is a schedule point): owner pops,
    steals, steal-half raids, [Scheduler.take] and external submits
    must run every task exactly once, exhaustively under DPOR, and a
    torn CAS in that [Atomic] must be caught. *)

type expect = Pass | Fail

type t = {
  sname : string;
  sdesc : string;
  expect : expect;  (** verdict the checker must reach within [sbudget] *)
  sfaults : bool;  (** run with fault injection enabled *)
  sbudget : int;  (** schedules that suffice for the expected verdict *)
  sstrategy : Runner.strategy option;
      (** strategy the scenario is built for (e.g. [Dpor] for programs
          with labeled footprints); [None] = the caller's choice *)
  sexhaust : bool;
      (** the expected verdict includes exhausting the schedule space
          within [sbudget] (DPOR scenarios) *)
  stags : string list;  (** registry groups, e.g. ["shipped"] *)
  prog : Runner.env -> Runner.program;
}

val all : t list

val find : string -> t option

(** Scenarios carrying the given tag, in registry order. *)
val find_tag : string -> t list

(** All scenario names, sorted (stable for golden tests). *)
val names : unit -> string list
