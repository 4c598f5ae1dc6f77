open A

let () = Sub.f ()
