module M1 : sig
  type t = { count : int; size : int }

  val make : int -> t
end

module M2 : sig
  type t = { count : int }

  val make : int -> t
end
