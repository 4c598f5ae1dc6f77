(* Adaptive preemption-quantum controller — a pure function from a
   queueing-pressure snapshot to the next per-worker quantum, in the
   spirit of LibPreemptible's fast adaptive user-space scheduling: the
   quantum shrinks multiplicatively while the worker's sub-pool has a
   run-queue backlog (more frequent preemption protects the tail of
   short requests queued behind long ones) and decays geometrically
   back toward the configured base interval once the backlog drains.

   Purity is the point: [Sched]'s expiring workers feed it live
   snapshots, while test_serve feeds it hand-built sequences and pins
   shrink/grow/clamp behaviour with no wall clock or domains involved. *)

type stats = {
  q_current : float;  (* the worker's quantum as of the last decision *)
  q_base : float;  (* the configured preempt_interval *)
  q_min : float;  (* floor (Config.quantum_min) *)
  q_max : float;  (* ceiling (Config.quantum_max) *)
  q_depth : int;  (* run-queue depth of the worker's sub-pool *)
  q_members : int;  (* workers serving that sub-pool *)
}

let clamp s v = Float.max s.q_min (Float.min s.q_max v)

(* Loaded: divide the quantum by (1 + depth/members).  Dividing by the
   per-worker backlog makes the response monotone in queue depth —
   deeper queues always mean an equal-or-shorter next quantum — and
   proportional: one queued task halves the quantum of a 1-worker
   sub-pool but barely moves an 8-worker one.

   Idle: close half the gap to the base interval per decision (snapping
   exactly onto the base once within 1%), so a pressure spike decays in
   a few ticks instead of lingering at the floor. *)
let next s =
  if s.q_depth <= 0 then begin
    let toward = s.q_current +. ((s.q_base -. s.q_current) /. 2.0) in
    let toward =
      if Float.abs (toward -. s.q_base) <= 0.01 *. s.q_base then s.q_base
      else toward
    in
    clamp s toward
  end
  else
    let pressure =
      float_of_int s.q_depth /. float_of_int (Stdlib.max 1 s.q_members)
    in
    clamp s (s.q_current /. (1.0 +. pressure))

(* Defaults used when Config leaves the bounds unset: the ceiling is
   the base interval itself and the floor is base/8 — one eighth keeps
   the extra preemptions bounded while still cutting the
   worst-case hold time of a long fiber by ~an order of magnitude. *)
let default_min ~base = base /. 8.0

let default_max ~base = base
