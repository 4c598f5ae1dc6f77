let spelled () = ()
let unspelled () = ()
let missing () = ()
let untested () = ()
