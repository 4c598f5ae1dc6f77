val f : unit -> unit
