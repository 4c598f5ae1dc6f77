(** Work-stealing scheduler (BOLT's default, paper §4.1).

    Each worker owns a FIFO queue; it runs threads from its own queue
    and steals from the back of a randomly chosen victim when empty.
    A preempted thread is pushed to the preempting worker's local FIFO
    queue, so every ready thread is rescheduled within a bounded number
    of preemption intervals — the property that prevents busy-wait
    deadlocks (paper §4.1). *)

open Types

(* This scheduler and [Sched_priority] push to and pop from [q_main]
   only through these, keeping [rt.main_queued] equal to the threads in
   all workers' [q_main]. *)
let push_main rt (w : worker) u =
  rt.main_queued <- rt.main_queued + 1;
  Dq.push_back w.q_main u

let taken rt = function
  | Some _ as r ->
      rt.main_queued <- rt.main_queued - 1;
      r
  | None -> None

let pop_front_main rt (w : worker) = taken rt (Dq.pop_front w.q_main)

let pop_back_main rt (w : worker) = taken rt (Dq.pop_back w.q_main)

let steal rt (w : worker) =
  let n = Array.length rt.workers in
  if n <= 1 then None
  else begin
    (* A few random probes, then a deterministic sweep so a lone ready
       thread cannot be missed forever.  Under a schedule controller the
       victim of each probe is a choice point instead of an RNG draw. *)
    let ctrl = Desim.Engine.controller (Oskern.Kernel.engine rt.kernel) in
    let attempt () =
      let v =
        match ctrl with
        | Some c -> Desim.Choice.pick c ~n ~tag:"steal.victim"
        | None -> Desim.Rng.int w.w_rng n
      in
      if v = w.rank then None else pop_back_main rt rt.workers.(v)
    in
    let rec probes k = if k = 0 then None else match attempt () with Some u -> Some u | None -> probes (k - 1) in
    match probes 2 with
    | Some u -> Some u
    | None when rt.main_queued = 0 -> None
    | None ->
        (* Fallback sweep, starting after ourselves so victim pressure
           is spread instead of always draining worker 0 first.  With
           every queue empty it could find nothing, so it is skipped
           (the probes above still draw, keeping the RNG stream). *)
        let rec sweep k =
          if k = n then None
          else
            let i = (w.rank + 1 + k) mod n in
            if i = w.rank then sweep (k + 1)
            else
              match pop_back_main rt rt.workers.(i) with
              | Some u -> Some u
              | None -> sweep (k + 1)
        in
        sweep 0
  end

let next rt (w : worker) =
  match pop_front_main rt w with
  | Some u -> Some u
  | None ->
      let stolen = steal rt w in
      (match stolen with
      | Some u -> if rt.observed then emit rt w.rank Recorder.ev_steal u.uid u.home
      | None -> ());
      stolen

let on_ready rt (u : ult) =
  push_main rt rt.workers.(u.home mod Array.length rt.workers) u

let on_preempted rt (w : worker) (u : ult) = push_main rt w u

let on_yielded rt (w : worker) (u : ult) = push_main rt w u

let make () = { next; on_ready; on_preempted; on_yielded }
