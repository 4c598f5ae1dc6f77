(** Simulation-level synchronization primitives built on {!Engine.block}.

    These are "instantaneous" primitives: acquiring a free mutex costs no
    virtual time; contended waiters queue FIFO and are woken through the
    event heap.  Any timing cost (e.g. a kernel lock's hold time) is
    modelled by the caller with {!Engine.delay}. *)

module Mutex : sig
  type t

  val create : unit -> t

  (** FIFO-fair lock; suspends the calling process while held. *)
  val lock : t -> unit

  val unlock : t -> unit

  val try_lock : t -> bool

  val locked : t -> bool

  (** Number of processes currently queued on the lock. *)
  val waiters : t -> int
end

module Ivar : sig
  (** Write-once cell; readers block until filled. *)
  type 'a t

  val create : unit -> 'a t

  (** @raise Invalid_argument when filled twice. *)
  val fill : 'a t -> 'a -> unit

  val read : 'a t -> 'a

  val peek : 'a t -> 'a option

  val is_filled : 'a t -> bool
end

module Waitq : sig
  (** A bare FIFO wait queue: processes park and are woken with a value.
      The building block for futexes and condition variables. *)
  type 'a t

  val create : unit -> 'a t

  val wait : 'a t -> 'a

  (** [wake_one q v] wakes the oldest waiter; returns [false] if empty. *)
  val wake_one : 'a t -> 'a -> bool

  (** [wake_all q v] wakes every queued waiter; returns how many. *)
  val wake_all : 'a t -> 'a -> int

  (** [cancellable_wait q] is [wait] that can also be aborted: it
      returns a [cancel] function usable from event context before the
      process is woken; the wait result is [None] if cancelled. *)
  val wait_cancellable : 'a t -> cancel_ref:(unit -> unit) ref -> 'a option
end

module Semaphore : sig
  type t

  val create : int -> t

  val acquire : t -> unit

  val release : t -> unit
end
