(* Two sibling modules declare a type [t] with a field [count]: only
   [M2]'s is read, so [M1]'s has no reader although a field of the same
   unit, type name and name has one. *)
module M1 = struct
  type t = { count : int; size : int }

  let make n = { count = n; size = n }
end

module M2 = struct
  type t = { count : int }

  let make n = { count = n }
end
