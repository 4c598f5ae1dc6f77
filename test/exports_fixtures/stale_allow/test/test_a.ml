let () = A.f ()
