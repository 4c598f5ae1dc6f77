let f () = ()
