(** Validated construction for the real fiber runtime, in the style of
    [Core.Config]: {!make} rejects nonsensical pool shapes up front —
    bad worker partitions, overlapping pins, empty sub-pools — with the
    uniform ["Config: <field> = <value> (must be <requirement>)"]
    message instead of letting them surface as a hung pool.

    A pool is a set of named sub-pools.  Each sub-pool pins a subset of
    the worker domains and runs its own work-stealing {!Scheduler};
    together the sub-pools must partition workers [0 .. domains-1]
    exactly (every worker pinned to exactly one sub-pool). *)

type subpool = {
  sp_name : string;  (** unique, non-empty *)
  sp_workers : int list;  (** global worker ids pinned to this sub-pool *)
  sp_overflow : bool;
      (** when [true] (default), idle members steal cross-sub-pool
          once their own sub-pool has nothing runnable; [false]
          reserves the members exclusively (paper §6 in-situ
          isolation) *)
}

type t = {
  domains : int;
  preempt_interval : float option;
  adaptive : bool;
      (** per-worker adaptive preemption quanta ({!Quantum}); requires
          [preempt_interval] *)
  quantum_min : float option;
      (** adaptive floor; defaults to [preempt_interval /. 8.] *)
  quantum_max : float option;
      (** adaptive ceiling; defaults to [preempt_interval] *)
  subpools : subpool list;
  recorder_enabled : bool;
  recorder_capacity : int;
}

(** [subpool ~name ~workers ()] — [overflow] defaults to [true].
    Validation happens in {!make}, not here. *)
val subpool :
  ?overflow:bool ->
  name:string ->
  workers:int list ->
  unit ->
  subpool

(** [make ()] — [domains] defaults to
    [Domain.recommended_domain_count () - 1] (at least 1); [subpools]
    defaults to a single ["default"] sub-pool spanning every worker
    (the shape of the historical flat pool); [preempt_interval]
    (seconds, positive) is the quantum every worker times for itself at
    its {!Sched.check} points; [adaptive] (default [false]) lets each
    worker's quantum move with its sub-pool's backlog, driven by the
    pure {!Quantum} controller, within [[quantum_min, quantum_max]]
    (both positive; defaults [preempt_interval /. 8.] and
    [preempt_interval]); [recorder] (default off) arms the flight
    recorder with [recorder_capacity] events per worker ring (default
    4096).

    @raise Invalid_argument with the uniform message above when a field
    is out of range ([quantum_min <= 0], [quantum_min > quantum_max],
    [adaptive] without [preempt_interval], ...) or the sub-pools do not
    partition the workers. *)
val make :
  ?domains:int ->
  ?preempt_interval:float ->
  ?adaptive:bool ->
  ?quantum_min:float ->
  ?quantum_max:float ->
  ?subpools:subpool list ->
  ?recorder:bool ->
  ?recorder_capacity:int ->
  unit ->
  t

(** The default worker count ([recommended_domain_count () - 1], at
    least 1). *)
val default_domains : unit -> int

(** @raise Invalid_argument — same checks as {!make}, for configs built
    by hand. *)
val validate : t -> unit
