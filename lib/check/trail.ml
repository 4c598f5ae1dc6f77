(** A trail is the recorded outcome of every controller consultation in
    one simulated schedule, in consultation order.  Because the engine,
    the kernel model and the runtime are deterministic apart from the
    controller, a trail is a complete, replayable encoding of a
    schedule: feed the same picks back and the same execution unfolds.

    [picked = 0] always means "the default" — the outcome the
    uncontrolled runtime would have produced (first tie in insertion
    order, no fault, zero delay).  A trail of all zeros is therefore the
    baseline schedule, and shrinking a counterexample means driving as
    many entries to zero as possible. *)

type entry = {
  tag : string;  (** which choice point ("engine.tie", "steal.victim", ...) *)
  n : int;  (** arity the controller was consulted with *)
  picked : int;  (** chosen alternative, [0 <= picked < n] *)
}

type t = entry array

let length = Array.length

let forced t =
  Array.fold_left (fun acc e -> if e.picked <> 0 then acc + 1 else acc) 0 t

(* Compact fingerprint of the picks only, for deduplicating schedules. *)
let signature t =
  let b = Buffer.create (Array.length t) in
  Array.iter (fun e -> Buffer.add_string b (string_of_int e.picked ^ ".")) t;
  Buffer.contents b

let to_string ?(max_forced = 24) t =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "%d choices, %d forced" (length t) (forced t));
  let shown = ref 0 in
  Array.iteri
    (fun i e ->
      if e.picked <> 0 then begin
        incr shown;
        if !shown <= max_forced then
          Buffer.add_string b
            (Printf.sprintf "%s[%d] %s = %d/%d"
               (if !shown = 1 then ": " else ", ")
               i e.tag e.picked e.n)
      end)
    t;
  if !shown > max_forced then
    Buffer.add_string b (Printf.sprintf ", ... (%d more)" (!shown - max_forced));
  Buffer.contents b
