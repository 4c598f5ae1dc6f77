let helper () = ()
let dead () = ()

(* [spin] only calls itself, inside its own definition. *)
let rec spin n = if n > 0 then spin (n - 1)

let rec recursive n = if n > 0 then recursive (n - 1)

let called () =
  helper ();
  recursive 3
