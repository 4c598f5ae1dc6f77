(* [Square] is matched but never built. *)
type shape = Circle of float | Square of float

let circle r = Circle r
let area = function Circle r -> 3.0 *. r *. r | Square s -> s *. s
