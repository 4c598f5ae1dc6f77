let clear () = ()
let used () = ()
