(** Recorded controller decisions for one schedule — the replayable
    encoding of an interleaving.  [picked = 0] is always the default
    (uncontrolled) outcome; see {!Check} for how trails are produced,
    replayed and shrunk. *)

type entry = {
  tag : string;  (** which choice point ("engine.tie", "steal.victim", ...) *)
  n : int;  (** arity the controller was consulted with *)
  picked : int;  (** chosen alternative, [0 <= picked < n] *)
}

type t = entry array

val length : t -> int

(** Number of non-default ([picked <> 0]) decisions — the quantity
    schedule shrinking minimizes. *)
val forced : t -> int

(** Fingerprint of the pick sequence, equal iff the schedules are
    pick-for-pick identical.  Used to deduplicate explored schedules. *)
val signature : t -> string

(** One-line human-readable summary listing the forced decisions. *)
val to_string : ?max_forced:int -> t -> string
