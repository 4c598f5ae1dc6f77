(** CPU affinity masks ([cpu_set_t] analogue). *)

type t

(** [all n] allows cores [0 .. n-1]. *)
val all : int -> t

(** [of_list n cores] allows exactly [cores] on an [n]-core machine. *)
val of_list : int -> int list -> t

(** [range n lo hi] allows cores [lo .. hi] inclusive. *)
val range : int -> int -> int -> t

val mem : t -> int -> bool

val to_list : t -> int list

(** Number of cores the mask was sized for. *)
val width : t -> int
