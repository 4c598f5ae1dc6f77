(* Spells A.spelled; A.unspelled only in this comment. *)
let () = A.spelled ()
