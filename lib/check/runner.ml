(** Schedule exploration and fault injection over the deterministic
    simulator (in the spirit of loom / shuttle / PCT).

    Every nondeterministic decision in the stack — engine tie-breaks at
    equal timestamps, preemption-timer firing offsets, KLT-pool picks,
    work-steal victim choice, plus injected faults — is routed through a
    {!Desim.Choice.t} controller.  [run] executes the program under
    [budget] controller-driven schedules, records each consultation into
    a {!Trail.t}, and reports the first invariant violation together
    with a greedily shrunk, deterministically replayable trail. *)

open Desim
open Preempt_core

exception Violation of string

let violate fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

let require ok fmt =
  Printf.ksprintf (fun m -> if not ok then raise (Violation m)) fmt

(* ------------------------------------------------------------------ *)
(* Programs under test                                                 *)
(* ------------------------------------------------------------------ *)

type env = { eng : Engine.t }

type program = {
  runtime : Runtime.t option;  (** watched by the deadlock oracle *)
  ults : Ult.t list;  (** threads the deadlock oracle tracks *)
  oracle : unit -> unit;  (** post-run invariant check; raise {!Violation} *)
}

let program ?runtime ?(ults = []) ?(oracle = fun () -> ()) () = { runtime; ults; oracle }

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

(** Mutual-exclusion monitor: raises as soon as two threads are inside
    the same critical section. *)
module Excl = struct
  type t = { ename : string; mutable inside : int; mutable entries : int }

  let create ename = { ename; inside = 0; entries = 0 }

  let enter t =
    t.inside <- t.inside + 1;
    t.entries <- t.entries + 1;
    if t.inside > 1 then
      violate "mutual exclusion violated: %d threads inside %s" t.inside
        t.ename

  let leave t = t.inside <- t.inside - 1

  let critical t f =
    enter t;
    Fun.protect ~finally:(fun () -> leave t) f

  let entries t = t.entries
end

(** FIFO-fairness monitor for queue locks: grants must follow arrival
    order.  The lock under test reports both orders; [check] raises on
    the first position where they diverge. *)
module Fifo = struct
  type t = { fname : string; mutable arrivals : int list; mutable grants : int list }

  let create fname = { fname; arrivals = []; grants = [] }

  let arrived t k = t.arrivals <- k :: t.arrivals

  let granted t k = t.grants <- k :: t.grants

  let order = List.rev

  let check t =
    let a = order t.arrivals and g = order t.grants in
    let show l = String.concat "," (List.map string_of_int l) in
    require (a = g) "%s: FIFO fairness violated (arrival order [%s], grant order [%s])"
      t.fname (show a) (show g)
end

let all_finished rt =
  let n = Runtime.unfinished rt in
  require (n = 0) "liveness: %d thread(s) never finished" n

let no_lost_wakeups rt =
  if Runtime.metrics_enabled rt then begin
    let s = Runtime.metrics rt in
    require
      (s.Metrics.s_sync_blocks = s.Metrics.s_sync_wakeups)
      "lost wakeup: %d sync blocks but only %d wakeups"
      s.Metrics.s_sync_blocks s.Metrics.s_sync_wakeups
  end

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)
(* ------------------------------------------------------------------ *)

type strategy =
  | Random_walk  (** independent uniform pick at every choice point *)
  | Pct of int
      (** PCT-style: default schedule with [d] randomly placed change
          points that force a non-default pick (Burckhardt et al.) *)
  | Dfs  (** exhaustive depth-first enumeration (small programs only) *)
  | Dpor
      (** exhaustive with dynamic partial-order reduction: one
          representative per Mazurkiewicz trace of the labeled events
          (Flanagan–Godefroid backtrack sets + sleep sets) *)
  | Replay of Trail.t  (** replay a recorded trail; beyond it, defaults *)

let strategy_name = function
  | Random_walk -> "random"
  | Pct d -> Printf.sprintf "pct:%d" d
  | Dfs -> "dfs"
  | Dpor -> "dpor"
  | Replay _ -> "replay"

(* All schedules of one [run] share the engine seed; only the chooser
   seed varies, so a counterexample replays from (seed, strategy,
   budget=1) alone.  The mix keeps per-schedule streams decorrelated
   while [schedule_seed seed 0 = seed]. *)
let schedule_seed seed i = seed + (i * 0x9E3779B1)

let default_engine_seed = 42

type kind = K_choose | K_fault | K_delay

(* A decider answers one consultation; the recorder around it writes
   the trail.  Fault and delay consultations reach the decider only
   when fault injection is enabled, so trails stay consistent across
   record / replay regardless of trail contents. *)

let clamp e n = if e.Trail.picked < n then e.Trail.picked else 0

let follower (entries : Trail.t) =
  let pos = ref 0 in
  fun _kind ~n ~tag:_ ~alts:_ ->
    if !pos < Array.length entries then begin
      let e = entries.(!pos) in
      incr pos;
      clamp e n
    end
    else 0

let random_decider seed =
  let r = Rng.make seed in
  fun kind ~n ~tag:_ ~alts:_ ->
    match kind with
    | K_choose -> Rng.int r n
    | K_fault -> if Rng.int r 8 = 0 then 1 else 0
    | K_delay -> if Rng.int r 8 = 0 then 1 + Rng.int r 3 else 0

let pct_decider ~depth ~horizon seed =
  let r = Rng.make seed in
  let flips = Hashtbl.create (max 1 depth) in
  for _ = 1 to depth do
    Hashtbl.replace flips (Rng.int r (max 1 horizon)) ()
  done;
  let count = ref 0 in
  fun kind ~n ~tag:_ ~alts:_ ->
    match kind with
    | K_choose ->
        let i = !count in
        incr count;
        if Hashtbl.mem flips i then Rng.int r n else 0
    | K_fault -> if Rng.int r 8 = 0 then 1 else 0
    | K_delay -> if Rng.int r 8 = 0 then 1 + Rng.int r 3 else 0

(* DFS walks the choice tree leaves-first: run the current prefix with
   defaults past its end, then bump the deepest decision that still has
   an untried alternative.  Every leaf (complete schedule) is visited
   exactly once. *)
type dfs_state = { mutable prefix : Trail.t; mutable exhausted : bool }

let dfs_decider st =
  let pos = ref 0 in
  fun _kind ~n ~tag:_ ~alts:_ ->
    if !pos < Array.length st.prefix then begin
      let e = st.prefix.(!pos) in
      incr pos;
      clamp e n
    end
    else 0

let dfs_advance st (observed : Trail.t) =
  let rec find i =
    if i < 0 then None
    else if observed.(i).Trail.picked < observed.(i).Trail.n - 1 then Some i
    else find (i - 1)
  in
  match find (Array.length observed - 1) with
  | None -> st.exhausted <- true
  | Some i ->
      let p = Array.sub observed 0 (i + 1) in
      p.(i) <- { (p.(i)) with Trail.picked = p.(i).Trail.picked + 1 };
      st.prefix <- p

(* ------------------------------------------------------------------ *)
(* Single-schedule execution                                           *)
(* ------------------------------------------------------------------ *)

(* Raised by the DPOR decider to abandon a schedule whose next step is
   in the sleep set: its Mazurkiewicz trace was already covered. *)
exception Pruned

type one = {
  o_trail : Trail.t;
  o_failure : string option;
  o_pruned : bool;  (** DPOR abandoned the schedule as redundant *)
  o_flight : string;
  o_parent : int -> int;  (** event creation parent (engine metadata) *)
}

let message_of = function
  | Violation m -> m
  | Engine.Deadlock m -> "deadlock: " ^ m
  | Invalid_argument m -> "invalid-arg: " ^ m
  | Failure m -> "failure: " ^ m
  | e -> "exception: " ^ Printexc.to_string e

(* Deadlock / lost-wakeup watchdog: a recurring engine event that fires
   while the runtime is live.  If every unfinished tracked thread stays
   U_blocked for [deadlock_after] of continuous virtual time, nothing
   can ever wake them (all wakers are themselves blocked or gone) and
   the schedule is reported as a deadlock. *)
let watchdog eng rt ults ~deadlock_after =
  let interval = deadlock_after /. 8.0 in
  let blocked_since = ref Float.nan in
  let rec tick () =
    if not (Runtime.is_stopping rt) then begin
      let live = List.filter (fun u -> not (Ult.finished u)) ults in
      if live <> [] && List.for_all Ult.blocked live then begin
        if Float.is_nan !blocked_since then blocked_since := Engine.now eng
        else if Engine.now eng -. !blocked_since >= deadlock_after then begin
          let names = String.concat ", " (List.map Ult.name live) in
          let extra =
            if not (Runtime.metrics_enabled rt) then ""
            else
              let s = Runtime.metrics rt in
              if s.Metrics.s_sync_blocks > s.Metrics.s_sync_wakeups then
                Printf.sprintf " (%d sync blocks vs %d wakeups: lost wakeup?)"
                  s.Metrics.s_sync_blocks s.Metrics.s_sync_wakeups
              else ""
          in
          violate "deadlock: {%s} blocked with no pending waker%s" names extra
        end
      end
      else blocked_since := Float.nan;
      Engine.post_after eng interval tick
    end
  in
  Engine.post_after eng interval tick

let run_one ?(on_fire = fun ~seq:_ ~fp:_ -> ()) ~decide ~faults ~max_events
    ~until ~deadlock_after (prog : env -> program) =
  let eng = Engine.create ~seed:default_engine_seed () in
  let entries = ref [] in
  let record tag n picked =
    entries := { Trail.tag; n; picked } :: !entries;
    picked
  in
  let ctrl =
    Choice.create
      ~choose:(fun ~n ~tag ~alts -> record tag n (decide K_choose ~n ~tag ~alts))
      ~fault:(fun ~tag ->
        faults && record tag 2 (decide K_fault ~n:2 ~tag ~alts:[||]) = 1)
      ~delay:(fun ~tag ~max ->
        if not faults then 0.0
        else
          max
          *. float_of_int (record tag 4 (decide K_delay ~n:4 ~tag ~alts:[||]))
          /. 3.)
      ~fired:on_fire ()
  in
  Engine.set_controller eng (Some ctrl);
  let failure = ref None in
  let pruned = ref false in
  let rt_ref = ref None in
  (try
     let p = prog { eng } in
     rt_ref := p.runtime;
     (match p.runtime with
     | Some rt when p.ults <> [] -> watchdog eng rt p.ults ~deadlock_after
     | _ -> ());
     Engine.run ~until ~max_events eng;
     p.oracle ()
   with
  | Pruned -> pruned := true
  | e -> failure := Some (message_of e));
  (* On any failure — oracle violation, watchdog deadlock, crash — grab
     the flight-record dump before the runtime is dropped, so the
     counterexample report can write it next to the trail. *)
  let o_flight =
    match (!failure, !rt_ref) with
    | Some _, Some rt when Runtime.recorder_enabled rt -> Runtime.flight_dump rt
    | _ -> ""
  in
  {
    o_trail = Array.of_list (List.rev !entries);
    o_failure = !failure;
    o_pruned = !pruned;
    o_flight;
    o_parent = Engine.event_parent eng;
  }

(* ------------------------------------------------------------------ *)
(* Counterexamples and reports                                         *)
(* ------------------------------------------------------------------ *)

type counterexample = {
  cx_message : string;  (** what went wrong *)
  cx_seed : int;  (** chooser seed of the failing schedule *)
  cx_strategy : string;  (** strategy that found it ({!strategy_name}) *)
  cx_budget : int;  (** budget of the run that found it *)
  cx_schedule : int;  (** 0-based index of the failing schedule *)
  cx_faults : bool;  (** fault injection was enabled *)
  cx_trail : Trail.t;  (** shrunk trail; replay with [Replay cx_trail] *)
  cx_trace : string;  (** Chrome-trace JSON of the shrunk failing run *)
  cx_flight : string;
      (** binary flight-record dump of the shrunk failing run (empty if
          the program's runtime had no recorder enabled); decode with
          {!Preempt_core.Recorder.decode} or [repro observe --load] *)
}

type report = {
  schedules : int;  (** schedules actually executed *)
  pruned : int;  (** DPOR only: schedules abandoned as redundant *)
  exhausted : bool;  (** DFS/DPOR only: the whole space was covered *)
  result : [ `Ok | `Violation of counterexample ];
}

let describe cx =
  String.concat "\n"
    [
      Printf.sprintf "violation: %s" cx.cx_message;
      Printf.sprintf
        "found by: strategy=%s seed=%d budget=%d (schedule #%d, faults=%b)"
        cx.cx_strategy cx.cx_seed cx.cx_budget cx.cx_schedule cx.cx_faults;
      Printf.sprintf "replay: seed=%d with budget=1, or the shrunk trail"
        cx.cx_seed;
      Printf.sprintf "trail: %s" (Trail.to_string cx.cx_trail);
    ]

(* Greedy shrink toward the default schedule, bounded by [max_replays]
   replays.  Phase 1 binary-searches the shortest failing prefix
   (everything beyond the violation is idle-spin noise, so this kills
   most forced picks at once); phase 2 zeroes runs of forced picks in
   halving chunk sizes, down to single decisions (ddmin-style).  The
   kept trail is always a prefix of the *observed* trail of a failing
   replay, so it is self-consistent by construction.

   Early exits: phase 2 is skipped outright when the phase-1 result has
   no forced picks left, and the chunk loop stops as soon as a full
   pass over the trail attempts no candidate (no chunk contains a
   forced pick — smaller chunk sizes would attempt exactly the same
   nothing).  Returns the replay count so tests can pin the cost. *)
let shrink ~replay ~max_replays trail0 msg0 =
  let best = ref trail0 in
  let best_msg = ref msg0 in
  let attempts = ref 0 in
  let try_cand cand =
    !attempts < max_replays
    && begin
         incr attempts;
         match replay cand with
         | Some (observed, m) ->
             (* Keep at most the candidate's length: entries beyond it
                are all-default by construction of the replay. *)
             let keep = min (Trail.length observed) (Trail.length cand) in
             best := Array.sub observed 0 keep;
             best_msg := m;
             true
         | None -> false
       end
  in
  (* Phase 1: shortest failing prefix (defaults beyond the cut). *)
  let lo = ref 0 in
  let hi = ref (Trail.length !best) in
  while !lo < !hi && !attempts < max_replays do
    let mid = (!lo + !hi) / 2 in
    if try_cand (Array.sub !best 0 mid) then hi := mid else lo := mid + 1
  done;
  (* Phase 2: zero chunks of forced picks, halving the chunk size. *)
  let zero_range c0 c1 =
    let arr = !best in
    let c1 = min c1 (Array.length arr) in
    let any = ref false in
    for j = c0 to c1 - 1 do
      if arr.(j).Trail.picked <> 0 then any := true
    done;
    !any
    && begin
         let cand =
           Array.mapi
             (fun j e ->
               if j >= c0 && j < c1 && e.Trail.picked <> 0 then
                 { e with Trail.picked = 0 }
               else e)
             arr
         in
         ignore (try_cand cand);
         true
       end
  in
  if Trail.forced !best > 0 then begin
    let size = ref (max 1 (Trail.length !best / 2)) in
    let stop = ref false in
    while (not !stop) && !size >= 1 && !attempts < max_replays do
      let n = Trail.length !best in
      let attempted = ref false in
      let i = ref 0 in
      while !i < n && !attempts < max_replays do
        if zero_range !i (!i + !size) then attempted := true;
        i := !i + !size
      done;
      (* No chunk at this size held a forced pick: the trail is already
         all-defaults wherever we could zero, so stop. *)
      if not !attempted then stop := true;
      size := if !size = 1 then 0 else !size / 2
    done
  end;
  (!best, !best_msg, !attempts)

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction                                     *)
(* ------------------------------------------------------------------ *)

(* DPOR in the loom/Flanagan–Godefroid style, specialised to the
   engine's structure: the only reorderable points are equal-timestamp
   event ties ("engine.tie" choice points), where the controller sees
   each alternative's (event id, footprint).  Two events are dependent
   iff both footprints are non-empty and share a comma-separated atom;
   unlabeled events are treated as scheduling-neutral (they commute
   with everything), which makes the reduction sound *relative to the
   program's labeling* — the same contract loom's "declare your shared
   accesses" model uses.  Creation (parent) chains supply the
   program-order part of happens-before: an event never races its own
   ancestors.

   For each consultation depth we keep a node with the picks already
   explored, the picks still to explore (backtrack set), and the sleep
   set inherited at entry.  After each complete execution the race
   analysis walks the fired-event log backwards; for the latest
   dependent, causally-unordered pair (i, j) it adds to node i the
   alternatives that could run j (or one of j's ancestors) first.
   Sleep sets prune schedules whose next event's equivalence class was
   already covered: executions that fire a sleeping event abort with
   {!Pruned} and are counted separately. *)

type dpor_node = {
  nd_n : int;
  nd_alts : (int * string) array;  (* (event id, footprint); [||] = opaque *)
  nd_sleep : (int * string) list;  (* sleep set at node entry *)
  mutable nd_pick : int;  (* alternative being explored *)
  mutable nd_done : int list;  (* alternatives fully explored *)
  mutable nd_todo : int list;  (* backtrack set: still to explore *)
}

(* Footprints are tiny comma-separated atom sets; dependence is shared
   membership. *)
let footprints_dependent a b =
  a <> "" && b <> ""
  && (a = b
     ||
     let sa = String.split_on_char ',' a in
     let sb = String.split_on_char ',' b in
     List.exists (fun x -> List.mem x sb) sa)

let run_dpor ~budget ~run_plain =
  let stack = ref ([||] : dpor_node array) in
  let exhausted = ref false in
  let schedules = ref 0 in
  let pruned_count = ref 0 in
  let outcome = ref None in
  (* One execution: follow [stack] through its prefix, extend with
     first-non-sleeping defaults past it, maintain the running sleep
     set, log fired events with the node (if any) that chose them. *)
  let execute () =
    let depth = ref 0 in
    let sleep = ref [] in
    let fired_log = ref [] in
    let new_nodes = ref [] in
    let pending_node = ref None in
    let asleep_id sl id = List.exists (fun (sid, _) -> sid = id) sl in
    let decide _kind ~n ~tag:_ ~alts =
      let d = !depth in
      incr depth;
      let nd =
        if d < Array.length !stack then (!stack).(d)
        else begin
          (* First visit at this depth on this branch: explore the
             first alternative whose event is not asleep (for opaque
             points, the default), queue nothing — backtrack picks are
             added only by the race analysis (plus full enumeration
             for opaque points, which DPOR cannot reason about). *)
          let pick =
            if Array.length alts = 0 then 0
            else begin
              let rec first k =
                if k >= n then raise Pruned
                else if asleep_id !sleep (fst alts.(k)) then first (k + 1)
                else k
              in
              first 0
            end
          in
          let todo =
            if Array.length alts = 0 then List.init (n - 1) (fun i -> i + 1)
            else []
          in
          let nd =
            {
              nd_n = n;
              nd_alts = alts;
              nd_sleep = !sleep;
              nd_pick = pick;
              nd_done = [];
              nd_todo = todo;
            }
          in
          new_nodes := nd :: !new_nodes;
          nd
        end
      in
      (* Events of already-explored siblings go to sleep below this
         node: any schedule that fires them next repeats a covered
         trace. *)
      if Array.length nd.nd_alts > 0 then begin
        List.iter
          (fun k ->
            let id, fp = nd.nd_alts.(k) in
            if fp <> "" && not (asleep_id !sleep id) then
              sleep := (id, fp) :: !sleep)
          nd.nd_done;
        pending_node := Some nd
      end;
      nd.nd_pick
    in
    let on_fire ~seq ~fp =
      let nd = !pending_node in
      pending_node := None;
      if fp <> "" then begin
        if asleep_id !sleep seq then raise Pruned;
        (* A fired event wakes the sleepers it is dependent with: their
           order relative to the rest now differs from the covered
           trace. *)
        sleep := List.filter (fun (_, sfp) -> not (footprints_dependent sfp fp)) !sleep
      end;
      fired_log := (seq, fp, nd) :: !fired_log
    in
    let one = run_plain ~on_fire decide in
    (one, Array.of_list (List.rev !fired_log), List.rev !new_nodes)
  in
  (* Race analysis: for each labeled event j, find the latest earlier
     labeled event i that is dependent and not j's creation-ancestor.
     If i was chosen at a tie node, make that node also try the
     alternatives that lead to j (j's event itself, or an ancestor of
     j fired between i and j) — reversing the race. *)
  let analyze fired parent_of =
    let len = Array.length fired in
    let pos = Hashtbl.create (max 16 len) in
    Array.iteri (fun i (seq, _, _) -> Hashtbl.replace pos seq i) fired;
    (* Parent seqs are strictly smaller than their children's, so the
       ancestor walk terminates at the first seq <= a. *)
    let ancestor a b =
      let rec up s = if s <= a then s = a else up (parent_of s) in
      a >= 0 && up b
    in
    for j = 0 to len - 1 do
      let sj, fpj, _ = fired.(j) in
      if fpj <> "" then begin
        let rec find i =
          if i < 0 then None
          else
            let si, fpi, ndi = fired.(i) in
            if fpi <> "" && footprints_dependent fpi fpj && not (ancestor si sj)
            then Some (i, ndi)
            else find (i - 1)
        in
        match find (j - 1) with
        | None | Some (_, None) ->
            (* No race, or event i fired as a forced singleton: at that
               point nothing else was co-enabled, so the pair is not
               reorderable (co-enabled same-timestamp events always
               surface as a tie). *)
            ()
        | Some (i, Some nd) ->
            let add k =
              if
                k <> nd.nd_pick
                && (not (List.mem k nd.nd_done))
                && (not (List.mem k nd.nd_todo))
                && not
                     (List.exists
                        (fun (sid, _) -> sid = fst nd.nd_alts.(k))
                        nd.nd_sleep)
              then nd.nd_todo <- nd.nd_todo @ [ k ]
            in
            let cand = ref [] in
            Array.iteri
              (fun k (id, _) ->
                let leads_to_j =
                  id = sj
                  ||
                  match Hashtbl.find_opt pos id with
                  | Some p -> p > i && p <= j && ancestor id sj
                  | None -> false
                in
                if leads_to_j then cand := k :: !cand)
              nd.nd_alts;
            (match !cand with
            | [] ->
                (* Defensive fallback: no alternative provably leads to
                   j — add them all (sound, possibly redundant). *)
                for k = 0 to nd.nd_n - 1 do
                  add k
                done
            | ks -> List.iter add ks)
      end
    done
  in
  (* Move to the next unexplored branch: deepest node with a pending
     backtrack pick wins; fully-explored suffixes are discarded. *)
  let advance () =
    let rec back d =
      if d < 0 then begin
        exhausted := true;
        false
      end
      else begin
        let nd = (!stack).(d) in
        nd.nd_done <- nd.nd_pick :: nd.nd_done;
        match nd.nd_todo with
        | k :: rest ->
            nd.nd_todo <- rest;
            nd.nd_pick <- k;
            stack := Array.sub !stack 0 (d + 1);
            true
        | [] -> back (d - 1)
      end
    in
    back (Array.length !stack - 1)
  in
  let continue_ = ref true in
  while
    !continue_ && Option.is_none !outcome && !schedules < budget
    && not !exhausted
  do
    let one, fired, new_nodes = execute () in
    stack := Array.append !stack (Array.of_list new_nodes);
    incr schedules;
    if one.o_pruned then incr pruned_count
    else begin
      match one.o_failure with
      | Some msg -> outcome := Some (!schedules - 1, one, msg)
      | None -> analyze fired one.o_parent
    end;
    if Option.is_none !outcome then continue_ := advance ()
  done;
  (!schedules, !pruned_count, !exhausted, !outcome)

(* ------------------------------------------------------------------ *)
(* Parallel exploration                                                *)
(* ------------------------------------------------------------------ *)

(* Random/PCT schedules are independent by construction: every schedule
   is fully determined by (strategy, schedule index), so the index
   space can be scanned by several domains at once.  Domains stride the
   index space, publish the smallest violating index through an atomic
   min, and stop as soon as their next index lies beyond it; the winner
   is therefore the same first-violating schedule a sequential scan
   finds, regardless of domain count.  Shrinking runs afterwards in the
   calling domain, so the counterexample is bit-identical too. *)
let scan_parallel ~jobs ~budget ~decider_for ~run_plain =
  let found = Atomic.make max_int in
  let results = Array.make jobs None in
  let worker d () =
    let i = ref d in
    let stop = ref false in
    while (not !stop) && !i < budget do
      if !i > Atomic.get found then stop := true
      else begin
        let one = run_plain (decider_for !i) in
        (match one.o_failure with
        | Some msg ->
            results.(d) <- Some (!i, one, msg);
            let rec publish () =
              let cur = Atomic.get found in
              if !i < cur && not (Atomic.compare_and_set found cur !i) then
                publish ()
            in
            publish ();
            stop := true
        | None -> ());
        i := !i + jobs
      end
    done
  in
  let doms =
    List.init (jobs - 1) (fun d -> Domain.spawn (fun () -> worker (d + 1) ()))
  in
  worker 0 ();
  List.iter Domain.join doms;
  Array.fold_left
    (fun acc r ->
      match (acc, r) with
      | None, r -> r
      | Some (i, _, _), Some (j, _, _) when j < i -> r
      | acc, _ -> acc)
    None results

(* ------------------------------------------------------------------ *)
(* The main loop                                                       *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 1) ?(faults = false) ?(jobs = 1) ?(max_events = 2_000_000)
    ?(until = 30.0) ?(deadlock_after = 0.02) ?(max_shrink_replays = 200)
    ~budget ~strategy prog =
  if budget <= 0 then invalid_arg "Check.run: budget must be positive";
  if jobs <= 0 then invalid_arg "Check.run: jobs must be positive";
  let dfs = { prefix = [||]; exhausted = false } in
  let run_plain ?on_fire decide =
    run_one ?on_fire ~decide ~faults ~max_events ~until ~deadlock_after prog
  in
  (* PCT needs a trail-length horizon to place its change points.  The
     sequential loop adapts it from the previous schedule; that feedback
     is inherently order-dependent, so probe the default schedule once
     and fix the horizon — identical for any job count. *)
  let horizon =
    lazy
      (let probe = run_plain (fun _ ~n:_ ~tag:_ ~alts:_ -> 0) in
       max 16 (Trail.length probe.o_trail))
  in
  let decider_for i =
    match strategy with
    | Random_walk -> random_decider (schedule_seed seed i)
    | Pct 0 ->
        (* No change points to place: the horizon is irrelevant, so skip
           the probe and keep depth 0 a pure default-schedule run. *)
        pct_decider ~depth:0 ~horizon:16 (schedule_seed seed i)
    | Pct d ->
        pct_decider ~depth:d ~horizon:(Lazy.force horizon) (schedule_seed seed i)
    | Dfs -> dfs_decider dfs
    | Dpor -> fun _kind ~n:_ ~tag:_ ~alts:_ -> 0 (* replaced by run_dpor *)
    | Replay tr -> follower tr
  in
  let counterexample i (one : one) msg =
    let replay tr =
      let r = run_plain (follower tr) in
      match r.o_failure with Some m -> Some (r.o_trail, m) | None -> None
    in
    let shrunk, msg', _attempts =
      shrink ~replay ~max_replays:max_shrink_replays one.o_trail msg
    in
    (* Re-execute the shrunk trail: confirms the replay is deterministic
       and captures the flight record for the report. *)
    let final = run_plain (follower shrunk) in
    let msg'', trail'' =
      match final.o_failure with
      | Some m -> (m, final.o_trail)
      | None -> (msg', shrunk)
    in
    let cx_flight = if final.o_failure <> None then final.o_flight else one.o_flight in
    let cx_trace =
      match Recorder.decode cx_flight with
      | Ok d when cx_flight <> "" ->
          Experiments.Chrome_trace.(to_json (of_flight d.Recorder.d_events))
      | _ -> ""
    in
    {
      cx_message = msg'';
      cx_seed = schedule_seed seed i;
      cx_strategy = strategy_name strategy;
      cx_budget = budget;
      cx_schedule = i;
      cx_faults = faults;
      cx_trail = trail'';
      cx_trace;
      cx_flight;
    }
  in
  match strategy with
  | Dpor ->
      let schedules, pruned, exhausted, outcome =
        run_dpor ~budget ~run_plain:(fun ~on_fire decide ->
            run_plain ~on_fire decide)
      in
      let result =
        match outcome with
        | None -> `Ok
        | Some (i, one, msg) -> `Violation (counterexample i one msg)
      in
      { schedules; pruned; exhausted; result }
  | (Random_walk | Pct _) when jobs > 1 ->
      (* Force the PCT horizon probe before fanning out: [Lazy.force]
         is not safe to race from several domains. *)
      (match strategy with
      | Pct d when d > 0 -> ignore (Lazy.force horizon)
      | _ -> ());
      (match scan_parallel ~jobs ~budget ~decider_for
               ~run_plain:(fun d -> run_plain d)
       with
      | None -> { schedules = budget; pruned = 0; exhausted = false; result = `Ok }
      | Some (i, one, msg) ->
          {
            schedules = i + 1;
            pruned = 0;
            exhausted = false;
            result = `Violation (counterexample i one msg);
          })
  | _ ->
      let rec loop i =
        if i >= budget then
          { schedules = i; pruned = 0; exhausted = false; result = `Ok }
        else if (match strategy with Dfs -> dfs.exhausted | _ -> false) then
          { schedules = i; pruned = 0; exhausted = true; result = `Ok }
        else begin
          let one = run_plain (decider_for i) in
          (match strategy with Dfs -> dfs_advance dfs one.o_trail | _ -> ());
          match one.o_failure with
          | None -> loop (i + 1)
          | Some msg ->
              {
                schedules = i + 1;
                pruned = 0;
                exhausted = false;
                result = `Violation (counterexample i one msg);
              }
        end
      in
      loop 0

let replay cx prog =
  run ~seed:cx.cx_seed ~faults:cx.cx_faults ~budget:1
    ~strategy:(Replay cx.cx_trail) prog
