(** Priority scheduler for in-situ analysis (paper §4.3).

    Threads with priority 0 ("simulation") live in per-worker FIFO
    queues with work stealing; lower-priority threads ("analysis") live
    in per-worker LIFO queues.  A worker always exhausts reachable
    simulation threads before touching analysis threads, and a preempted
    analysis thread goes back to the local LIFO so its cache stays warm
    (the paper's stated reason for LIFO). *)

open Types

let steal_main rt (w : worker) =
  let n = Array.length rt.workers in
  let rec sweep i =
    if i = n then None
    else
      let v = (w.rank + 1 + i) mod n in
      match Sched_ws.pop_back_main rt rt.workers.(v) with
      | Some u -> Some u
      | None -> sweep (i + 1)
  in
  (* With every [q_main] empty the sweep could find nothing. *)
  if n <= 1 || rt.main_queued = 0 then None else sweep 0

let next rt (w : worker) =
  match Sched_ws.pop_front_main rt w with
  | Some u -> Some u
  | None -> (
      match steal_main rt w with
      | Some u ->
          if rt.observed then emit rt w.rank Recorder.ev_steal u.uid u.home;
          Some u
      | None -> Dq.pop_back w.q_aux (* LIFO *))

let on_ready rt (u : ult) =
  let w = rt.workers.(u.home mod Array.length rt.workers) in
  if u.priority <= 0 then Sched_ws.push_main rt w u else Dq.push_back w.q_aux u

let on_preempted rt (w : worker) (u : ult) =
  if u.priority <= 0 then Sched_ws.push_main rt w u else Dq.push_back w.q_aux u

let on_yielded rt (w : worker) (u : ult) = on_preempted rt w u

let make () = { next; on_ready; on_preempted; on_yielded }
