module X = A

let () = X.aliased ()
