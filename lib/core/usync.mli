(** User-level synchronization for ULTs.

    All blocking here is {e user-level}: a blocked thread leaves its
    worker free to run other threads (the lightweight-synchronization
    advantage of M:N threads the paper leans on).  Busy-wait variants —
    the kind that deadlock nonpreemptive runtimes — live with the MKL
    model in the [linalg] library.  Every primitive emits a sync-block
    event when it parks a thread and a sync-wake event when it readies
    one; {!Metrics} counts both. *)

(** [join rt u] blocks the calling thread until [u] finishes. *)
val join : Runtime.t -> Ult.t -> unit

module Mutex : sig
  type t

  val create : Runtime.t -> t

  (** FIFO-fair; blocks the thread, not the worker. *)
  val lock : t -> unit

  val unlock : t -> unit

  val try_lock : t -> bool
end

module Barrier : sig
  type t

  (** [create rt n] makes a barrier for [n] parties. *)
  val create : Runtime.t -> int -> t

  (** Blocks until [n] threads arrive; reusable across phases. *)
  val wait : t -> unit
end

module Ivar : sig
  (** Write-once value readable from ULTs. *)
  type 'a t

  val create : Runtime.t -> 'a t

  (** [fill t v] may be called from any context (ULT, event, external).
      @raise Invalid_argument if filled twice. *)
  val fill : 'a t -> 'a -> unit

  (** ULT context only; blocks until filled. *)
  val read : 'a t -> 'a

  val peek : 'a t -> 'a option
end

module Channel : sig
  (** Unbounded FIFO channel between ULTs. *)
  type 'a t

  val create : Runtime.t -> 'a t

  (** Never blocks; callable from any context. *)
  val send : 'a t -> 'a -> unit

  (** ULT context; blocks while empty. *)
  val recv : 'a t -> 'a

  val length : 'a t -> int
end
