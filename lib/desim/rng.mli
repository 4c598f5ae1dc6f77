(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every stochastic choice in the simulator draws from an [Rng.t] so
    that experiments replay bit-for-bit given a seed.  [split] derives an
    independent stream, which lets concurrent components draw without
    perturbing each other's sequences. *)

type t

val make : int -> t

(** [split t] returns a new generator whose stream is independent of the
    subsequent outputs of [t]. *)
val split : t -> t

(** [bits64 t] returns 64 uniformly random bits. *)
val bits64 : t -> int64

(** [int t bound] returns a uniform int in [\[0, bound)].  [bound > 0]. *)
val int : t -> int -> int

(** [float t] returns a uniform float in [\[0, 1)]. *)
val float : t -> float

(** [range t lo hi] returns a uniform float in [\[lo, hi)]. *)
val range : t -> float -> float -> float

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit
