(** Simulation-level mutex built on {!Engine.block} (the simulated
    kernel's signal lock).

    It is "instantaneous": acquiring a free mutex costs no virtual time;
    contended waiters queue FIFO and are woken through the event heap.
    Any timing cost (e.g. a kernel lock's hold time) is modelled by the
    caller with {!Engine.delay}. *)

module Mutex : sig
  type t

  val create : unit -> t

  (** FIFO-fair lock; suspends the calling process while held. *)
  val lock : t -> unit

  val unlock : t -> unit

  (** Number of processes currently queued on the lock. *)
  val waiters : t -> int
end
