val top : unit -> unit
val let_open : unit -> unit
val local_open : unit -> unit
val aliased : unit -> unit
