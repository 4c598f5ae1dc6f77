let () =
  A.Sub.g ();
  A.h ()
