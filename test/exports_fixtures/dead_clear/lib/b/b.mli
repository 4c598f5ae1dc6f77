val clear : int -> unit
