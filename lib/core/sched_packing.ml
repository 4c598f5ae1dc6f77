(** Thread-packing scheduler — paper Algorithm 1 (§4.2).

    There are [N_total] pools, one per (initial) worker; pool [i] is
    [rt.workers.(i).q_main].  With [N_active] workers active, each
    active worker owns the "private" pools [rank, rank+N_active, ...]
    below [N_private = N_active * floor(N_total/N_active)], while pools
    [N_private .. N_total-1] are shared by everyone.  Each scheduling
    round alternates: one thread from a private pool, then one from a
    shared pool, so shared threads are sliced round-robin across active
    workers at the preemption interval while private threads keep
    locality. *)

open Types

let pool rt i = rt.workers.(i).q_main

let n_private rt =
  let n_total = Array.length rt.workers in
  rt.n_active * (n_total / rt.n_active)

let pop_private rt (w : worker) =
  let np = n_private rt in
  let rec scan i =
    if i >= np then None
    else match Dq.pop_front (pool rt i) with Some u -> Some u | None -> scan (i + rt.n_active)
  in
  scan w.rank

let pop_shared rt (w : worker) =
  let n_total = Array.length rt.workers in
  let np = n_private rt in
  let rec scan i =
    if i >= n_total then None
    else
      match Dq.pop_front (pool rt i) with
      | Some u ->
          (* A grab from a shared pool that is not the worker's own
             counts as a (cooperative) steal for the metrics layer. *)
          if i <> w.rank && rt.observed then emit rt w.rank Recorder.ev_steal u.uid i;
          Some u
      | None -> scan (i + 1)
  in
  scan np

(* Threads always return to their own pool, so a suspended worker's pool
   keeps feeding the active workers through the shared range. *)
let on_ready rt (u : ult) = Dq.push_back (pool rt (u.home mod Array.length rt.workers)) u

let on_preempted rt (_w : worker) (u : ult) = on_ready rt u

let on_yielded rt (_w : worker) (u : ult) = on_ready rt u

let make () =
  (* Per-worker phase toggles, private to this scheduler instance:
     Algorithm 1 alternates private/shared within one loop iteration;
     [next] is called once per thread, so we alternate across calls. *)
  let phase : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let shared_first w =
    match Hashtbl.find_opt phase w.rank with Some b -> b | None -> false
  in
  let next rt (w : worker) =
    let sf = shared_first w in
    Hashtbl.replace phase w.rank (not sf);
    let first, second = if sf then (pop_shared, pop_private) else (pop_private, pop_shared) in
    match first rt w with Some u -> Some u | None -> second rt w
  in
  { next; on_ready; on_preempted; on_yielded }
