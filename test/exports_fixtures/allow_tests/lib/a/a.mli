val spelled : unit -> unit
val unspelled : unit -> unit
val missing : unit -> unit
val untested : unit -> unit
