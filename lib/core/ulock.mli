(** Classic lock algorithms as ULT-level primitives — ticket,
    test-and-test-and-set with exponential backoff, and MCS — ported
    to the M:N runtime in the style of "Basic Lock Algorithms in
    Lightweight Thread Environments".

    Every waiter spins a bounded number of cooperative yields and then
    parks on {!Ult.suspend}, so a preempted holder can always reclaim
    the worker; parks and wakes feed the runtime's sync metrics, which
    keeps the checker's lost-wakeup accounting balanced.

    Each lock carries an optional {e seeded broken variant}
    reproducing a classic porting bug; the checker's scenario registry
    uses them as caught-violation regressions:
    - {!Ticket.create}[ ~unfair:true]: LIFO barging wakeups — mutual
      exclusion holds, FIFO fairness breaks.
    - {!Ttas.create}[ ~racy:true]: preemptible test-to-set window —
      mutual exclusion breaks.
    - {!Mcs.create}[ ~drop_handoff:true]: release ignores an
      in-flight enqueuer — the successor parks forever (deadlock). *)

(** Ticket lock: fetch-and-add for a ticket, FIFO grants by ticket
    number. *)
module Ticket : sig
  type t

  val create : ?unfair:bool -> Runtime.t -> t

  (** Blocks (bounded spin, then park) until the caller's ticket is
      served.  Call from ULT context only. *)
  val lock : t -> unit

  val unlock : t -> unit

  (** [(arrival order, grant order)] as ticket numbers — feed to a
      {e FIFO fairness} oracle: the two must be equal. *)
  val history : t -> int list * int list
end

(** Test-and-test-and-set lock with exponential backoff.  No fairness
    guarantee (barging by design), so only the exclusion oracle
    applies. *)
module Ttas : sig
  type t

  val create : ?racy:bool -> Runtime.t -> t

  val lock : t -> unit

  val unlock : t -> unit
end

(** MCS queue lock: waiters enqueue on an atomic tail swap and each
    spins/parks on its own node; release hands off to the linked
    successor (waiting out the swap-to-link window). *)
module Mcs : sig
  type t

  val create : ?drop_handoff:bool -> Runtime.t -> t

  val lock : t -> unit

  val unlock : t -> unit

  (** [(arrival order, grant order)] as enqueue numbers (FIFO oracle). *)
  val history : t -> int list * int list
end
