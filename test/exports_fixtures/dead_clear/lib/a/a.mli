(* [clear] has no caller; B's [clear] has one, which a whole-word
   match would credit to A as well. *)
val clear : unit -> unit
val used : unit -> unit
