(** Streaming and batch statistics used by the experiment harnesses. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float

(** Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples. *)
val stddev : t -> float

(** [percentile t p] with [p] in [\[0, 100\]], by linear interpolation on
    the sorted samples.  @raise Invalid_argument on an empty series. *)
val percentile : t -> float -> float

val median : t -> float

val pp_summary : Format.formatter -> t -> unit
