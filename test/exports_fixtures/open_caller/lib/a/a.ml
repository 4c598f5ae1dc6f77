let top () = ()
let let_open () = ()
let local_open () = ()
let aliased () = ()
