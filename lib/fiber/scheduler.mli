(** Pluggable sub-pool schedulers for the real fiber runtime.

    Every sub-pool of a {!Sched.pool} carries one scheduler instance
    over its member workers.  Members are addressed by {e slot} — the
    worker's index within the sub-pool — and non-members (targeted
    spawns, cross-sub-pool wakes, overflow thieves) pass [slot = -1];
    implementations must make the external path safe from any domain.

    Three policies ship behind the same interface: {!ws} (the Chase–Lev
    work stealing the flat pool always had), and ports of the paper's
    simulated schedulers {!packing} (thread packing, Algorithm 1 /
    [lib/core/sched_packing.ml]) and {!priority} (§4.3 in-situ
    priorities / [lib/core/sched_priority.ml]).  Custom policies plug
    in by implementing {!SCHEDULER} and passing the packed module to
    {!Config.subpool}. *)

type task = unit -> unit

module type SCHEDULER = sig
  type t

  val name : string
  (** Stable identifier, reported by {!Sched.stats}. *)

  val create : slots:int -> t
  (** Fresh state for a sub-pool of [slots] members. *)

  val push : t -> slot:int -> prio:int -> task -> unit
  (** Make a task runnable.  [slot >= 0] is the owning member's fast
      path; [slot = -1] an external submission (any domain).  [prio] is
      a hint only priority-aware schedulers read ([> 0] = in-situ
      analysis work). *)

  val push_front : t -> slot:int -> prio:int -> task -> unit
  (** Re-queue a yielded task such that it does not run before other
      pending local work (yield must give way). *)

  val pop : t -> slot:int -> task option
  (** The member's own next task; owner-only, [slot >= 0]. *)

  val steal : t -> slot:int -> rng:(unit -> int) -> task option
  (** Take a task another member made runnable ([slot >= 0] skips the
      caller's own slot), or hand one to a foreign worker
      ([slot = -1], cross-sub-pool overflow).  [rng ()] supplies fresh
      non-negative pseudo-random ints for victim selection.  Returning
      [None] means no stealable task was observed. *)

  val steal_batch :
    t ->
    slot:int ->
    rng:(unit -> int) ->
    max:int ->
    spill:(task -> unit) ->
    task option
  (** Like {!steal}, but claim up to [max] tasks from a single victim
      in one raid (capped at half the victim's run, so the victim
      stays supplied): the first is returned, the rest are handed to
      [spill] in queue order.  Implementations must never invoke
      [spill] while holding an internal lock — the runtime's spill
      re-pushes on the thief's own scheduler, and thieves raiding each
      other under held victim locks would form a lock cycle.
      Analysis-priority work ([prio > 0] under {!priority}) is never
      batched.  [max <= 1] behaves as {!steal}. *)

  val length : t -> int
  (** Racy size snapshot (diagnostics, idleness heuristics); never
      negative. *)
end

type t = (module SCHEDULER)

val ws : t
val packing : t
val priority : t

val name : t -> string

(** The built-in policy registered under that name, if any
    (["ws"], ["packing"], ["priority"]). *)
val of_name : string -> t option

(** {2 Instantiation (used by the runtime)} *)

(** A scheduler instantiated for one sub-pool: state closed over once
    at pool construction, one indirect call per operation. *)
type instance = {
  i_name : string;
  i_push : slot:int -> prio:int -> task -> unit;
  i_push_front : slot:int -> prio:int -> task -> unit;
  i_pop : slot:int -> task option;
  i_steal : slot:int -> rng:(unit -> int) -> task option;
  i_steal_batch :
    slot:int -> rng:(unit -> int) -> max:int -> spill:(task -> unit) -> task option;
  i_length : unit -> int;
}

(** @raise Invalid_argument if [slots < 1]. *)
val instantiate : t -> slots:int -> instance
