let () = A.(local_open ())
