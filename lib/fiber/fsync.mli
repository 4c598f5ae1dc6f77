(** Fiber-level synchronization for the real runtime.

    All blocking here suspends the {e fiber}, not the worker domain —
    the lightweight-synchronization property of M:N threading.  All
    primitives are safe to use from fibers running on any worker. *)

module Mutex : sig
  type t

  val create : unit -> t

  (** Blocks the calling fiber while held.  Not reentrant. *)
  val lock : t -> unit

  val unlock : t -> unit

  (** [with_lock t f] = lock; run [f]; unlock (also on exception). *)
  val with_lock : t -> (unit -> 'a) -> 'a
end

module Channel : sig
  (** Unbounded multi-producer multi-consumer FIFO channel. *)
  type 'a t

  val create : unit -> 'a t

  (** Never blocks. *)
  val send : 'a t -> 'a -> unit

  (** Blocks the fiber while empty. *)
  val recv : 'a t -> 'a

  val try_recv : 'a t -> 'a option
end

module Barrier : sig
  type t

  (** [create n] — reusable barrier for [n] fibers. *)
  val create : int -> t

  val wait : t -> unit
end
