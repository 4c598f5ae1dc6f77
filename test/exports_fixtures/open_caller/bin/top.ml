open A

let () = top ()
