(** The run queues of one sub-pool of a {!Sched.pool}: Chase–Lev work
    stealing, one {!Deque} per member.

    Members are addressed by {e slot} — the worker's index within the
    sub-pool.  Non-members (targeted spawns, cross-sub-pool wakes,
    overflow thieves) pass [slot = -1]; every operation that accepts it
    is safe from any domain.  The paper's packing and in-situ priority
    schedulers live in the simulator ([lib/core/sched_packing.ml],
    [lib/core/sched_priority.ml]), not here. *)

type 'a t

(** Fresh queues for a sub-pool of [slots] members.
    @raise Invalid_argument if [slots < 1]. *)
val create : slots:int -> 'a t

(** Make a task runnable.  [slot >= 0] pushes on the member's own
    owner end; [slot = -1] is an external submission, which enters the
    front segment of a round-robin-chosen member's deque. *)
val push : 'a t -> slot:int -> 'a -> unit

(** Re-queue a yielded task at the thief end, so that it does not run
    before other pending local work (yield must give way). *)
val push_front : 'a t -> slot:int -> 'a -> unit

(** The member's own next task; owner-only, [slot >= 0]. *)
val pop : 'a t -> slot:int -> 'a option

(** [take t ~slot x] removes the entry [x] (physical equality) if it is
    the next task at the owner end of [slot], and returns [true];
    owner-only, [slot >= 0].  [true] is an exclusive claim: no pop or
    steal ever returns that entry.  On [false] every queued task is
    still queued, in the same order, but one may have been out of the
    queue for a moment; the caller bumps the sub-pool's park epoch, so
    that a sibling that swept in that window re-sweeps before it
    sleeps. *)
val take : 'a t -> slot:int -> 'a -> bool

(** Take tasks another member made runnable ([slot >= 0] skips the
    caller's own deque), or hand them to a foreign worker ([slot = -1],
    cross-sub-pool overflow).  Random victims are probed first, then
    every deque is swept, so [None] means no stealable task was
    observed.  [rng ()] supplies fresh non-negative pseudo-random ints.
    One raid claims up to [max] tasks from a single victim, capped at
    half the victim's run ({!Deque.steal_batch}): the first is
    returned, the rest are handed to [spill] in queue order.  [max <= 1]
    claims one task with {!Deque.steal}'s single-index CAS. *)
val steal_batch :
  'a t -> slot:int -> rng:(unit -> int) -> max:int -> spill:('a -> unit) -> 'a option

(** Racy size snapshot (diagnostics, idleness heuristics); never
    negative. *)
val length : 'a t -> int
