(* A.clear () in a comment is no call, nor is "A.clear" in a string. *)
let () =
  A.used ();
  B.clear 0;
  print_string "A.clear"
