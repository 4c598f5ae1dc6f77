(* Flight recorder: per-worker ring buffers of int-coded timestamped
   events, in the style of Go's execution tracer and magic-trace.  The
   rings are allocated the first time the recorder is enabled, so a
   recorder that is never switched on costs a few words.  Callers guard
   their emits (one boolean load when disabled); an enabled emit is one
   modulo index plus four array stores.  The analysis passes below — lifecycle
   reconstruction, preemption-latency attribution, anomaly detection —
   run post-mortem on a decoded copy, never on the hot path. *)

(* ------------------------------------------------------------------ *)
(* Event codes.  [a]/[b] meanings are per-code; see [code_name]. *)

let ev_spawn = 1 (* a = uid *)

let ev_ready = 2 (* a = uid *)

let ev_run = 3 (* a = uid *)

let ev_preempt = 4 (* a = uid, b = 0 signal-yield / 1 klt-switch *)

let ev_yield = 5 (* a = uid *)

let ev_block = 6 (* a = uid *)

let ev_resume = 7 (* a = uid (bound thread resumed after a KLT switch) *)

let ev_finish = 8 (* a = uid *)

let ev_steal = 9 (* a = uid, b = home pool it was taken from *)

let ev_sig_post = 10 (* a = worker rank, b = 0 timer / 1 forwarded *)

let ev_preempt_req = 11 (* a = uid (preemption flagged by the handler) *)

let ev_preempt_done = 12 (* a = next uid running, b = latency in ns *)

let ev_sync_block = 13 (* a = uid *)

let ev_sync_wake = 14 (* a = uid *)

let ev_klt_remap = 15 (* a = new klt id carrying the worker *)

(* Kernel-side events, forwarded through the engine observer.  The
   kernel owns their numbers (16-21 and 31 up); see [Oskern.Kernel]'s
   observer codes for each [a]/[b]. *)

let ev_timer_fire = Oskern.Kernel.obs_timer_fire

let ev_sig_deliver = Oskern.Kernel.obs_sig_deliver

let ev_futex_wait = Oskern.Kernel.obs_futex_wait

let ev_futex_wake = Oskern.Kernel.obs_futex_wake

let ev_klt_dispatch = Oskern.Kernel.obs_klt_dispatch

let ev_klt_block = Oskern.Kernel.obs_klt_block

let ev_klt_exit = Oskern.Kernel.obs_klt_exit

let ev_klt_preempt = Oskern.Kernel.obs_klt_preempt

let ev_klt_migrate = Oskern.Kernel.obs_klt_migrate

let ev_newidle_pull = Oskern.Kernel.obs_newidle_pull

let ev_balance_move = Oskern.Kernel.obs_balance_move

let ev_pool_steal = 22
(* a = thief sub-pool id, b = victim sub-pool id.  Emitted by the real
   fiber runtime (lib/fiber) on every successful steal: [a = b] is a
   same-sub-pool steal, [a <> b] a cross-sub-pool overflow steal. *)

let ev_quantum_change = 23
(* a = worker id, b = new preemption quantum in ns.  Emitted by a
   worker of an adaptive real fiber pool (lib/fiber/sched.ml) into its
   own ring, at the quantum expiry where the Quantum controller moved
   its quantum. *)

(* Per-request span events, emitted by the serving workload (lib/serve)
   through [Fiber.emit_flight].  [a] is always the request id; every
   event lands in the ring of the worker that emitted it, so the ring
   index doubles as the worker attribution. *)

let ev_req_arrival = 24 (* a = request id, b = service class (0 short / 1 long) *)

let ev_req_enqueue = 25 (* a = request id (submitted to the pool) *)

let ev_req_dispatch = 26 (* a = request id (first instruction of the body) *)

let ev_req_preempt = 27 (* a = request id (quantum over; yielding) *)

let ev_req_resume = 28 (* a = request id (running again after the yield) *)

let ev_req_done = 29 (* a = request id, b = measured sojourn in ns *)

let ev_steal_batch = 30
(* a = batch size (tasks claimed in one raid, including the one the
   thief runs itself), b = victim sub-pool id.  Emitted by the real
   fiber runtime alongside [ev_pool_steal] on every successful
   batched raid; `repro observe` folds these into the steal-split
   batch-size histogram. *)

let ev_preempt_declined = 36
(* a = uid.  A KLT-switching preemption found no spare KLT: the thread
   runs on and the KLT creator is asked for one (paper §3.1.2).  It
   closes the preempt-req chain as designed, not as a lost preemption. *)

let code_name = function
  | 1 -> "spawn"
  | 2 -> "ready"
  | 3 -> "run"
  | 4 -> "preempt"
  | 5 -> "yield"
  | 6 -> "block"
  | 7 -> "resume"
  | 8 -> "finish"
  | 9 -> "steal"
  | 10 -> "sig-post"
  | 11 -> "preempt-req"
  | 12 -> "preempt-done"
  | 13 -> "sync-block"
  | 14 -> "sync-wake"
  | 15 -> "klt-remap"
  | 22 -> "pool-steal"
  | 23 -> "quantum-change"
  | 24 -> "req-arrival"
  | 25 -> "req-enqueue"
  | 26 -> "req-dispatch"
  | 27 -> "req-preempt"
  | 28 -> "req-resume"
  | 29 -> "req-done"
  | 30 -> "steal-batch"
  | 36 -> "preempt-declined"
  | c when c = ev_timer_fire -> "timer-fire"
  | c when c = ev_sig_deliver -> "sig-deliver"
  | c when c = ev_futex_wait -> "futex-wait"
  | c when c = ev_futex_wake -> "futex-wake"
  | c when c = ev_klt_dispatch -> "klt-dispatch"
  | c when c = ev_klt_block -> "klt-block"
  | c when c = ev_klt_exit -> "klt-exit"
  | c when c = ev_klt_preempt -> "klt-preempt"
  | c when c = ev_klt_migrate -> "klt-migrate"
  | c when c = ev_newidle_pull -> "newidle-pull"
  | c when c = ev_balance_move -> "balance-move"
  | c -> Printf.sprintf "code%d" c

(* ------------------------------------------------------------------ *)
(* Rings. *)

type ring = {
  r_ts : float array;
  r_code : int array;
  r_a : int array;
  r_b : int array;
  mutable r_count : int;  (* total events ever emitted to this ring *)
}

type t = {
  mutable on : bool;
  capacity : int;
  n_rings : int;
  mutable rings : ring array;
      (* index = worker rank; the last ring is global.  Empty until the
         first [set_enabled t true]; [on] implies it is allocated. *)
}

let make_ring capacity =
  {
    r_ts = Array.make capacity 0.0;
    r_code = Array.make capacity 0;
    r_a = Array.make capacity 0;
    r_b = Array.make capacity 0;
    r_count = 0;
  }

let create ~n_workers ~capacity =
  if n_workers <= 0 then invalid_arg "Recorder.create: n_workers <= 0";
  if capacity <= 0 then invalid_arg "Recorder.create: capacity <= 0";
  { on = false; capacity; n_rings = n_workers + 1; rings = [||] }

let enabled t = t.on

(* The rings are stored before [on] is set, so an emit that sees [on]
   finds them.  An emit on another domain must be ordered after this
   call (by [Domain.spawn] or a lock), as for any recorder setting. *)
let set_enabled t b =
  if b && Array.length t.rings = 0 then
    t.rings <- Array.init t.n_rings (fun _ -> make_ring t.capacity);
  t.on <- b

let capacity t = t.capacity

let n_rings t = t.n_rings

let global_ring t = t.n_rings - 1

(* Events ever emitted to [ring]; zero before the rings exist. *)
let count t ring = if Array.length t.rings = 0 then 0 else t.rings.(ring).r_count

let total_emitted t = Array.fold_left (fun acc r -> acc + r.r_count) 0 t.rings

(* Events lost to wraparound: everything emitted past [capacity]
   overwrote the ring's oldest record.  Zero until the ring wraps. *)
let overwritten t ring = Stdlib.max 0 (count t ring - t.capacity)

let total_overwritten t =
  let acc = ref 0 in
  for ring = 0 to n_rings t - 1 do
    acc := !acc + overwritten t ring
  done;
  !acc

let emit t ring ts code a b =
  if t.on then begin
    let r = t.rings.(ring) in
    let i = r.r_count mod t.capacity in
    r.r_ts.(i) <- ts;
    r.r_code.(i) <- code;
    r.r_a.(i) <- a;
    r.r_b.(i) <- b;
    r.r_count <- r.r_count + 1
  end

(* ------------------------------------------------------------------ *)
(* Decoding. *)

type event = {
  e_ts : float;
  e_ring : int;
  e_seq : int;  (* emission index within its ring (monotone) *)
  e_code : int;
  e_a : int;
  e_b : int;
}

let ring_events t ring =
  let count = count t ring in
  let kept = min count t.capacity in
  let first = count - kept in
  if kept = 0 then [||]
  else
    let r = t.rings.(ring) in
    Array.init kept (fun k ->
        let seq = first + k in
        let i = seq mod t.capacity in
        {
          e_ts = r.r_ts.(i);
          e_ring = ring;
          e_seq = seq;
          e_code = r.r_code.(i);
          e_a = r.r_a.(i);
          e_b = r.r_b.(i);
        })

let order a b =
  let c = compare a.e_ts b.e_ts in
  if c <> 0 then c
  else
    let c = compare a.e_ring b.e_ring in
    if c <> 0 then c else compare a.e_seq b.e_seq

let events t =
  let all = Array.concat (List.init (n_rings t) (fun i -> ring_events t i)) in
  Array.sort order all;
  all

(* ------------------------------------------------------------------ *)
(* Binary dump format — the crash-dump artifact [lib/check] writes next
   to a counterexample trail.  Little-endian:

     "FLTREC01" | n_rings u32 | capacity u32
     per ring: total_count u32 | stored u32 | stored records
     record: ts (float bits) u64 | code u32 | a s64 | b s64            *)

let magic = "FLTREC01"

let encode t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_int32_le buf (Int32.of_int (n_rings t));
  Buffer.add_int32_le buf (Int32.of_int t.capacity);
  for ring = 0 to n_rings t - 1 do
    let evs = ring_events t ring in
    Buffer.add_int32_le buf (Int32.of_int (count t ring));
    Buffer.add_int32_le buf (Int32.of_int (Array.length evs));
    Array.iter
      (fun e ->
        Buffer.add_int64_le buf (Int64.bits_of_float e.e_ts);
        Buffer.add_int32_le buf (Int32.of_int e.e_code);
        Buffer.add_int64_le buf (Int64.of_int e.e_a);
        Buffer.add_int64_le buf (Int64.of_int e.e_b))
      evs
  done;
  Buffer.contents buf

let save t ~path =
  let oc = open_out_bin path in
  output_string oc (encode t);
  close_out oc

type dump = {
  d_n_rings : int;
  d_capacity : int;
  d_events : event array;
  d_overwritten : int array;  (* per ring: events lost to wraparound *)
}

let decode s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let len = String.length s in
  if len < 16 then fail "flight dump: truncated header (%d bytes)" len
  else if String.sub s 0 8 <> magic then
    fail "flight dump: bad magic %S (want %S)" (String.sub s 0 8) magic
  else begin
    let u32 off = Int32.to_int (String.get_int32_le s off) in
    let n_rings = u32 8 and cap = u32 12 in
    if n_rings <= 0 || n_rings > 4096 then
      fail "flight dump: implausible ring count %d" n_rings
    else begin
      let pos = ref 16 in
      let out = ref [] in
      let ok = ref true in
      let err = ref "" in
      let lost = Array.make n_rings 0 in
      (try
         for ring = 0 to n_rings - 1 do
           if !pos + 8 > len then failwith "truncated ring header";
           let count = u32 !pos and stored = u32 (!pos + 4) in
           pos := !pos + 8;
           (* The writer stores min(count, capacity) records; the excess
              was overwritten in place before the dump was taken. *)
           lost.(ring) <- Stdlib.max 0 (count - stored);
           if stored < 0 || stored > cap || !pos + (stored * 28) > len then
             failwith "truncated ring body";
           for k = 0 to stored - 1 do
             let off = !pos + (k * 28) in
             let ts = Int64.float_of_bits (String.get_int64_le s off) in
             let code = Int32.to_int (String.get_int32_le s (off + 8)) in
             let a = Int64.to_int (String.get_int64_le s (off + 12)) in
             let b = Int64.to_int (String.get_int64_le s (off + 20)) in
             out :=
               { e_ts = ts; e_ring = ring; e_seq = count - stored + k; e_code = code; e_a = a; e_b = b }
               :: !out
           done;
           pos := !pos + (stored * 28)
         done
       with Failure m ->
         ok := false;
         err := m);
      if not !ok then fail "flight dump: %s" !err
      else begin
        let all = Array.of_list (List.rev !out) in
        Array.sort order all;
        Ok { d_n_rings = n_rings; d_capacity = cap; d_events = all; d_overwritten = lost }
      end
    end
  end

let load ~path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  decode s

(* ------------------------------------------------------------------ *)
(* Lifecycle reconstruction: per-ULT state machine replayed from the
   merged event stream. *)

type phase = P_ready | P_running | P_bound | P_blocked | P_finished

let phase_name = function
  | P_ready -> "ready"
  | P_running -> "running"
  | P_bound -> "bound"
  | P_blocked -> "blocked"
  | P_finished -> "finished"

type span = { s_phase : phase; s_from : float; s_to : float }

type lifecycle = {
  lc_uid : int;
  mutable lc_spawned : float;  (* NaN if the spawn fell off the ring *)
  mutable lc_finished : float;  (* NaN if unfinished (or lost) *)
  mutable lc_runs : int;
  mutable lc_preempts : int;
  mutable lc_yields : int;
  mutable lc_blocks : int;
  mutable lc_steals : int;
  mutable lc_run_time : float;
  mutable lc_spans : span list;  (* reverse chronological while building *)
  mutable lc_open : (phase * float) option;
}

let lifecycles evs =
  let tab : (int, lifecycle) Hashtbl.t = Hashtbl.create 64 in
  let get uid =
    match Hashtbl.find_opt tab uid with
    | Some lc -> lc
    | None ->
        let lc =
          {
            lc_uid = uid;
            lc_spawned = Float.nan;
            lc_finished = Float.nan;
            lc_runs = 0;
            lc_preempts = 0;
            lc_yields = 0;
            lc_blocks = 0;
            lc_steals = 0;
            lc_run_time = 0.0;
            lc_spans = [];
            lc_open = None;
          }
        in
        Hashtbl.add tab uid lc;
        lc
  in
  let close lc ts =
    match lc.lc_open with
    | None -> ()
    | Some (ph, t0) ->
        lc.lc_spans <- { s_phase = ph; s_from = t0; s_to = ts } :: lc.lc_spans;
        if ph = P_running then lc.lc_run_time <- lc.lc_run_time +. (ts -. t0);
        lc.lc_open <- None
  in
  let transition lc ts ph =
    close lc ts;
    lc.lc_open <- Some (ph, ts)
  in
  Array.iter
    (fun e ->
      let code = e.e_code and ts = e.e_ts in
      if code >= ev_spawn && code <= ev_steal then begin
        let lc = get e.e_a in
        if code = ev_spawn then begin
          lc.lc_spawned <- ts;
          transition lc ts P_ready
        end
        else if code = ev_ready then transition lc ts P_ready
        else if code = ev_run then begin
          lc.lc_runs <- lc.lc_runs + 1;
          transition lc ts P_running
        end
        else if code = ev_resume then begin
          lc.lc_runs <- lc.lc_runs + 1;
          transition lc ts P_running
        end
        else if code = ev_preempt then begin
          lc.lc_preempts <- lc.lc_preempts + 1;
          transition lc ts (if e.e_b = 1 then P_bound else P_ready)
        end
        else if code = ev_yield then begin
          lc.lc_yields <- lc.lc_yields + 1;
          transition lc ts P_ready
        end
        else if code = ev_block then begin
          lc.lc_blocks <- lc.lc_blocks + 1;
          transition lc ts P_blocked
        end
        else if code = ev_finish then begin
          lc.lc_finished <- ts;
          close lc ts;
          lc.lc_open <- Some (P_finished, ts)
        end
        else if code = ev_steal then lc.lc_steals <- lc.lc_steals + 1
      end)
    evs;
  let all = Hashtbl.fold (fun _ lc acc -> lc :: acc) tab [] in
  List.iter
    (fun lc ->
      (match lc.lc_open with
      | Some (ph, t0) when ph <> P_finished ->
          lc.lc_spans <- { s_phase = ph; s_from = t0; s_to = Float.nan } :: lc.lc_spans
      | _ -> ());
      lc.lc_spans <- List.rev lc.lc_spans)
    all;
  List.sort (fun a b -> compare a.lc_uid b.lc_uid) all

(* ------------------------------------------------------------------ *)
(* Preemption-latency attribution.

   Each worker has at most one measured preemption in flight (the
   runtime's [measure_preempt] latch), so the per-worker event order
   pairs the stages exactly:

     sig-post t0  ->  preempt-req t1  ->  preempt t2  ->  preempt-done t3

   and the stage durations (t1-t0, t2-t1, t3-t2) sum to t3-t0, the very
   sample the runtime feeds the signal->switch histogram — both sides
   compute it from the same stored timestamps, so the totals agree
   bit-for-bit unless the chain's head fell off the ring. *)

type chain = {
  at_worker : int;
  at_uid : int;  (* the thread that was preempted *)
  at_next_uid : int;  (* the thread running after the switch *)
  at_mode : int;  (* 0 signal-yield, 1 KLT-switch, -1 no switch seen *)
  at_t0 : float;  (* when the preempting signal was posted *)
  at_fire_to_handler : float;  (* t1 - t0: post -> handler running *)
  at_handler_to_switch : float;  (* t2 - t1: handler -> context switch *)
  at_switch_to_run : float;  (* t3 - t2: switch -> next thread running *)
}

let chain_total c = c.at_fire_to_handler +. c.at_handler_to_switch +. c.at_switch_to_run

type anomaly =
  | Never_landed of { an_worker : int; an_t0 : float; an_uid : int }
      (** a preemption was flagged but no thread switch ever completed *)
  | Coalesced of { an_worker : int; an_at : float; an_gap : float }
      (** gap between consecutive timer posts far above the interval *)
  | Starved of { an_uid : int; an_ready : float; an_wait : float }
      (** a ready thread waited more than [starve_after] to run *)

let anomaly_to_string = function
  | Never_landed a ->
      Printf.sprintf
        "never-landed: worker%d flagged preemption of ult%d at %.6fs but no switch completed"
        a.an_worker a.an_uid a.an_t0
  | Coalesced a ->
      Printf.sprintf
        "timer-coalescing: worker%d saw a %.2f us gap between timer posts at %.6fs"
        a.an_worker (a.an_gap *. 1e6) a.an_at
  | Starved a ->
      Printf.sprintf "starvation: ult%d ready at %.6fs waited %.2f us to run"
        a.an_uid a.an_ready (a.an_wait *. 1e6)

type pending = No_chain | Flagged of float * float * int | Switched of float * float * float * int * int

let attribute ~n_workers evs =
  let chains = ref [] in
  let anomalies = ref [] in
  for w = 0 to n_workers - 1 do
    let post = ref Float.nan in
    let st = ref No_chain in
    let abort t0 uid =
      anomalies := Never_landed { an_worker = w; an_t0 = t0; an_uid = uid } :: !anomalies
    in
    Array.iter
      (fun e ->
        if e.e_ring = w then
          if e.e_code = ev_sig_post then post := e.e_ts
          else if e.e_code = ev_preempt_req then begin
            (match !st with
            | No_chain -> ()
            | Flagged (t0, _, uid) | Switched (t0, _, _, uid, _) -> abort t0 uid);
            let t0 = if Float.is_nan !post || !post > e.e_ts then e.e_ts else !post in
            post := Float.nan;
            st := Flagged (t0, e.e_ts, e.e_a)
          end
          else if e.e_code = ev_preempt then begin
            match !st with
            | Flagged (t0, t1, uid) -> st := Switched (t0, t1, e.e_ts, uid, e.e_b)
            | No_chain | Switched _ -> ()
          end
          else if e.e_code = ev_preempt_declined then begin
            match !st with Flagged _ -> st := No_chain | No_chain | Switched _ -> ()
          end
          else if e.e_code = ev_preempt_done then begin
            let t3 = e.e_ts in
            (match !st with
            | Flagged (t0, t1, uid) ->
                (* The flagged thread never switched (it finished or
                   blocked first); the handler->switch stage collapses. *)
                chains :=
                  {
                    at_worker = w;
                    at_uid = uid;
                    at_next_uid = e.e_a;
                    at_mode = -1;
                    at_t0 = t0;
                    at_fire_to_handler = t1 -. t0;
                    at_handler_to_switch = 0.0;
                    at_switch_to_run = t3 -. t1;
                  }
                  :: !chains
            | Switched (t0, t1, t2, uid, mode) ->
                chains :=
                  {
                    at_worker = w;
                    at_uid = uid;
                    at_next_uid = e.e_a;
                    at_mode = mode;
                    at_t0 = t0;
                    at_fire_to_handler = t1 -. t0;
                    at_handler_to_switch = t2 -. t1;
                    at_switch_to_run = t3 -. t2;
                  }
                  :: !chains
            | No_chain -> ());
            st := No_chain
          end)
      evs;
    match !st with
    | Flagged (t0, _, uid) | Switched (t0, _, _, uid, _) -> abort t0 uid
    | No_chain -> ()
  done;
  (List.rev !chains, List.rev !anomalies)

let detect_anomalies ~n_workers ~interval ?(starve_after = 8.0) evs =
  let anomalies = ref [] in
  (* Timer coalescing: per-worker gap between consecutive timer-origin
     signal posts well beyond the configured interval. *)
  for w = 0 to n_workers - 1 do
    let last = ref Float.nan in
    Array.iter
      (fun e ->
        if e.e_ring = w && e.e_code = ev_sig_post && e.e_b = 0 then begin
          (if not (Float.is_nan !last) then
             let gap = e.e_ts -. !last in
             if gap > 1.75 *. interval then
               anomalies := Coalesced { an_worker = w; an_at = e.e_ts; an_gap = gap } :: !anomalies);
          last := e.e_ts
        end)
      evs
  done;
  (* Starvation: ready -> run gaps beyond [starve_after] intervals. *)
  let ready_at : (int, float) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      if e.e_code = ev_ready || e.e_code = ev_spawn then
        Hashtbl.replace ready_at e.e_a e.e_ts
      else if e.e_code = ev_run || e.e_code = ev_resume then begin
        (match Hashtbl.find_opt ready_at e.e_a with
        | Some t0 ->
            let wait = e.e_ts -. t0 in
            if wait > starve_after *. interval then
              anomalies := Starved { an_uid = e.e_a; an_ready = t0; an_wait = wait } :: !anomalies
        | None -> ());
        Hashtbl.remove ready_at e.e_a
      end)
    evs;
  List.rev !anomalies
