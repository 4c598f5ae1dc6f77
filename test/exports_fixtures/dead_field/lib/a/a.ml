(* [hits] is set in a literal, by [<-] and kept by a copy, but never
   read; [name] is read by a pattern and [size] by a field access. *)
type t = { mutable hits : int; name : string; size : int }

let make name = { hits = 0; name; size = 1 }
let touch t = t.hits <- 1
let rename t name = { t with name }
let name { name; _ } = name
let size t = t.size
