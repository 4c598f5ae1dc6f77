(** Lightweight event tracing for tests and debugging.

    A trace is a buffer of [(time, tag, detail)] records.  Tests assert
    on recorded sequences; the experiment harnesses leave tracing off. *)

type t

type record = { time : float; tag : string; detail : string }

val create : ?capacity:int -> unit -> t

(** Tracing is disabled until [enable] is called; [emit] on a disabled
    trace is free. *)
val enable : t -> unit

val enabled : t -> bool

val emit : t -> float -> string -> string -> unit

(** Records in emission order. *)
val records : t -> record list

(** Records whose tag equals the argument. *)
val with_tag : t -> string -> record list

val length : t -> int
