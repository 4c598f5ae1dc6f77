module Sub : sig
  val f : unit -> unit
  val g : unit -> unit
end

val h : unit -> unit
