let () = A.called ()
