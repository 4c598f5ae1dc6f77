(* [repro observe] — run a small preemption-heavy workload with the
   flight recorder on, reconstruct what happened from the event rings
   alone, and cross-check the reconstruction against the live metrics.

   The workload mirrors examples/preemption_timeline.ml: one core, one
   worker, two KLT-switching compute threads sharing it under a 2 ms
   aligned preemption timer — every timer fire forces a measurable
   preemption, so the attribution chains exercise all three stages.

   The same report also renders a loaded binary dump ([--load]), in
   which case no live metrics exist and the consistency check is
   skipped. *)

open Oskern
open Preempt_core

let interval = 2e-3

let n_workers = 1

let n_ults = 2

let run_workload () =
  let eng = Desim.Engine.create () in
  let machine = Machine.with_cores Machine.skylake 1 in
  let kernel = Kernel.create eng machine in
  let config =
    Config.make ~timer_strategy:Config.Per_worker_aligned ~interval
      ~metrics_enabled:true ~recorder_enabled:true ()
  in
  let rt = Runtime.create ~config kernel ~n_workers in
  let uids =
    List.init n_ults (fun i ->
        let u =
          Runtime.spawn rt ~kind:Types.Klt_switching ~home:0
            ~name:(Printf.sprintf "thread%d" i) (fun () -> Ult.compute 0.012)
        in
        u.Types.uid)
  in
  Runtime.start rt;
  Desim.Engine.run eng;
  (rt, uids)

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

(* Attribution chains grouped by preempted thread: count and per-stage
   means, in seconds. *)
type row = {
  rw_uid : int;
  rw_n : int;
  rw_fire_to_handler : float;
  rw_handler_to_switch : float;
  rw_switch_to_run : float;
  rw_total : float;
}

type consistency = {
  cs_chains : int;  (** completed attribution chains *)
  cs_samples : int;  (** samples in the sig_to_switch histogram *)
  cs_chain_p50 : float;  (** interpolated p50 of the chain totals *)
  cs_hist_p50 : float;  (** interpolated p50 of sig_to_switch *)
  cs_bucket_distance : int;
      (** |bucket(chain p50) - bucket(hist p50)|; the acceptance bound
          is <= 1 *)
}

(* Sub-pool steal attribution (real fiber runtime dumps): every
   successful steal is an [ev_pool_steal] with (thief sub-pool, victim
   sub-pool), so local steals and cross-sub-pool overflow separate by
   whether the two ids agree. *)
type steal_split = {
  ss_local : int;  (** same-sub-pool steals (thief = victim) *)
  ss_overflow : int;  (** cross-sub-pool overflow steals *)
  ss_pairs : (int * int * int) list;
      (** overflow breakdown: (thief sub-pool, victim sub-pool, count),
          sorted *)
  ss_batches : (int * int) list;
      (** batch-size histogram from [ev_steal_batch]: (batch size,
          raids of that size), ascending.  Size counts every task a
          raid claimed, including the one the thief ran itself; empty
          for dumps predating batched raids. *)
}

(* Adaptive-quantum attribution (real fiber runtime dumps): each worker
   emits [ev_quantum_change] with (worker id, new quantum in ns) each
   time the controller moves a worker's quantum, so the record shows
   how far and how often preemption tightened under load. *)
type quantum_row = {
  qr_worker : int;
  qr_changes : int;
  qr_min : float;  (** smallest quantum reached, seconds *)
  qr_max : float;  (** largest quantum reached, seconds *)
  qr_last : float;  (** quantum at end of record, seconds *)
}

type quantum_split = {
  qs_changes : int;
  qs_shrinks : int;  (** changes that tightened the quantum *)
  qs_grows : int;  (** changes that relaxed it back toward base *)
  qs_rows : quantum_row list;  (** per worker, sorted by worker id *)
}

(* Per-request span decomposition (serving-workload dumps): each
   request's [ev_req_arrival .. ev_req_done] events split its sojourn
   into queueing (arrival -> first dispatch), preemption overhead
   (each preempt -> resume gap) and service (the rest).  The stage sum
   is compared bucket-for-bucket against the measured sojourn the
   workload stored in [ev_req_done]'s payload — both derive from the
   same clock reads, so a complete span verifies exactly. *)
type span_row = {
  sr_req : int;
  sr_class : int;  (** service class from [ev_req_arrival]; -1 unknown *)
  sr_queue : float;  (** arrival -> first dispatch, seconds *)
  sr_service : float;  (** dispatch -> done minus overhead *)
  sr_overhead : float;  (** sum of preempt -> resume gaps *)
  sr_preempts : int;  (** bracketed preemption yields *)
  sr_total : float;  (** stage sum = queue + service + overhead *)
  sr_exact : bool;  (** bucket(stage sum) = bucket(measured sojourn) *)
}

type span_split = {
  spn_requests : int;  (** distinct request ids seen in the record *)
  spn_complete : int;  (** spans with arrival, dispatch and done intact *)
  spn_verified : int;  (** complete spans whose stage sum reproduces the
                           measured sojourn bucket-for-bucket *)
  spn_queue : Metrics.Hist.t;  (** queueing stage over complete spans *)
  spn_service : Metrics.Hist.t;
  spn_overhead : Metrics.Hist.t;
  spn_total : Metrics.Hist.t;  (** stage sums over complete spans *)
  spn_rows : span_row list;  (** complete spans, slowest first *)
}

type report = {
  r_events : Recorder.event array;
  r_emitted : int;
  r_rings : int;
  r_capacity : int;
  r_overwritten : int array;
      (** per ring: events lost to wraparound; non-empty counts mean
          reconstructions below may be truncated *)
  r_lifecycles : Recorder.lifecycle list;
  r_chains : Recorder.chain list;
  r_rows : row list;  (** chains grouped by preempted uid *)
  r_anomalies : Recorder.anomaly list;
  r_consistency : consistency option;  (** [None] without live metrics *)
  r_steals : steal_split option;
      (** [None] when the record carries no pool-steal events (the
          simulated runtime never emits them) *)
  r_quanta : quantum_split option;
      (** [None] when the record carries no quantum-change events
          (fixed-interval pools, simulated runtime) *)
  r_spans : span_split option;
      (** [None] when the record carries no per-request span events
          (anything but a recorder-armed serving run) *)
}

let rows_of_chains chains =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c : Recorder.chain) ->
      let n, f, h, s, t =
        Option.value (Hashtbl.find_opt tbl c.Recorder.at_uid)
          ~default:(0, 0., 0., 0., 0.)
      in
      Hashtbl.replace tbl c.Recorder.at_uid
        ( n + 1,
          f +. c.Recorder.at_fire_to_handler,
          h +. c.Recorder.at_handler_to_switch,
          s +. c.Recorder.at_switch_to_run,
          t +. Recorder.chain_total c ))
    chains;
  Hashtbl.fold
    (fun uid (n, f, h, s, t) acc ->
      let m x = x /. float_of_int n in
      {
        rw_uid = uid;
        rw_n = n;
        rw_fire_to_handler = m f;
        rw_handler_to_switch = m h;
        rw_switch_to_run = m s;
        rw_total = m t;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.rw_uid b.rw_uid)

let consistency_of chains (m : Metrics.snapshot) =
  let samples = Metrics.Hist.count m.Metrics.s_sig_to_switch in
  if chains = [] || samples = 0 then None
  else begin
    let ch = Metrics.Hist.create () in
    List.iter (fun c -> Metrics.Hist.add ch (Recorder.chain_total c)) chains;
    let chain_p50 = Metrics.Hist.quantile ch 50. in
    let hist_p50 = Metrics.Hist.quantile m.Metrics.s_sig_to_switch 50. in
    Some
      {
        cs_chains = List.length chains;
        cs_samples = samples;
        cs_chain_p50 = chain_p50;
        cs_hist_p50 = hist_p50;
        cs_bucket_distance =
          abs
            (Metrics.Hist.bucket_of chain_p50
            - Metrics.Hist.bucket_of hist_p50);
      }
  end

let steal_split_of events =
  let local = ref 0 in
  let pairs = Hashtbl.create 8 in
  let batches = Hashtbl.create 8 in
  Array.iter
    (fun (e : Recorder.event) ->
      if e.Recorder.e_code = Recorder.ev_pool_steal then begin
        if e.Recorder.e_a = e.Recorder.e_b then incr local
        else
          let key = (e.Recorder.e_a, e.Recorder.e_b) in
          Hashtbl.replace pairs key
            (1 + Option.value ~default:0 (Hashtbl.find_opt pairs key))
      end
      else if e.Recorder.e_code = Recorder.ev_steal_batch then
        let size = e.Recorder.e_a in
        Hashtbl.replace batches size
          (1 + Option.value ~default:0 (Hashtbl.find_opt batches size)))
    events;
  let overflow = Hashtbl.fold (fun _ n acc -> acc + n) pairs 0 in
  if !local = 0 && overflow = 0 then None
  else
    Some
      {
        ss_local = !local;
        ss_overflow = overflow;
        ss_pairs =
          Hashtbl.fold (fun (t, v) n acc -> (t, v, n) :: acc) pairs []
          |> List.sort compare;
        ss_batches =
          Hashtbl.fold (fun size n acc -> (size, n) :: acc) batches []
          |> List.sort compare;
      }

let quantum_split_of events =
  (* Per worker: (changes, min, max, last).  A worker emits its own
     changes into its own ring, so per-worker order survives the ring
     merge. *)
  let tbl = Hashtbl.create 8 in
  let shrinks = ref 0 and grows = ref 0 in
  Array.iter
    (fun (e : Recorder.event) ->
      if e.Recorder.e_code = Recorder.ev_quantum_change then begin
        let w = e.Recorder.e_a in
        let q = float_of_int e.Recorder.e_b *. 1e-9 in
        (match Hashtbl.find_opt tbl w with
        | None -> Hashtbl.replace tbl w (1, q, q, q)
        | Some (n, lo, hi, last) ->
            if q < last then incr shrinks else if q > last then incr grows;
            Hashtbl.replace tbl w (n + 1, Float.min lo q, Float.max hi q, q))
      end)
    events;
  if Hashtbl.length tbl = 0 then None
  else
    let rows =
      Hashtbl.fold
        (fun w (n, lo, hi, last) acc ->
          { qr_worker = w; qr_changes = n; qr_min = lo; qr_max = hi;
            qr_last = last }
          :: acc)
        tbl []
      |> List.sort (fun a b -> compare a.qr_worker b.qr_worker)
    in
    Some
      {
        qs_changes = List.fold_left (fun a r -> a + r.qr_changes) 0 rows;
        qs_shrinks = !shrinks;
        qs_grows = !grows;
        qs_rows = rows;
      }

(* Walking state per request while scanning the (ts-ordered) event
   stream. *)
type span_acc = {
  mutable sa_class : int;
  mutable sa_arrival : float;
  mutable sa_dispatch : float;
  mutable sa_done : float;
  mutable sa_sojourn_ns : int;
  mutable sa_pending : float;  (* open preempt, NaN if none *)
  mutable sa_overhead : float;
  mutable sa_preempts : int;
}

let span_split_of events =
  let tbl : (int, span_acc) Hashtbl.t = Hashtbl.create 256 in
  let get req =
    match Hashtbl.find_opt tbl req with
    | Some a -> a
    | None ->
        let a =
          {
            sa_class = -1;
            sa_arrival = Float.nan;
            sa_dispatch = Float.nan;
            sa_done = Float.nan;
            sa_sojourn_ns = -1;
            sa_pending = Float.nan;
            sa_overhead = 0.0;
            sa_preempts = 0;
          }
        in
        Hashtbl.add tbl req a;
        a
  in
  Array.iter
    (fun (e : Recorder.event) ->
      let code = e.Recorder.e_code in
      if code >= Recorder.ev_req_arrival && code <= Recorder.ev_req_done then begin
        let a = get e.Recorder.e_a in
        let ts = e.Recorder.e_ts in
        if code = Recorder.ev_req_arrival then begin
          a.sa_arrival <- ts;
          a.sa_class <- e.Recorder.e_b
        end
        else if code = Recorder.ev_req_dispatch then begin
          if Float.is_nan a.sa_dispatch then a.sa_dispatch <- ts
        end
        else if code = Recorder.ev_req_preempt then a.sa_pending <- ts
        else if code = Recorder.ev_req_resume then begin
          if not (Float.is_nan a.sa_pending) then begin
            a.sa_overhead <- a.sa_overhead +. Float.max 0.0 (ts -. a.sa_pending);
            a.sa_preempts <- a.sa_preempts + 1;
            a.sa_pending <- Float.nan
          end
        end
        else if code = Recorder.ev_req_done then begin
          a.sa_done <- ts;
          a.sa_sojourn_ns <- e.Recorder.e_b
        end
      end)
    events;
  if Hashtbl.length tbl = 0 then None
  else begin
    let queue_h = Metrics.Hist.create () in
    let service_h = Metrics.Hist.create () in
    let overhead_h = Metrics.Hist.create () in
    let total_h = Metrics.Hist.create () in
    let rows = ref [] in
    let complete = ref 0 in
    let verified = ref 0 in
    Hashtbl.iter
      (fun req a ->
        if
          not
            (Float.is_nan a.sa_arrival
            || Float.is_nan a.sa_dispatch
            || Float.is_nan a.sa_done)
        then begin
          incr complete;
          let queue = a.sa_dispatch -. a.sa_arrival in
          let busy = a.sa_done -. a.sa_dispatch in
          let service = busy -. a.sa_overhead in
          let total = queue +. service +. a.sa_overhead in
          let sojourn =
            if a.sa_sojourn_ns < 0 then Float.nan
            else float_of_int a.sa_sojourn_ns *. 1e-9
          in
          let exact =
            (not (Float.is_nan sojourn))
            && Metrics.Hist.bucket_of total = Metrics.Hist.bucket_of sojourn
          in
          if exact then incr verified;
          Metrics.Hist.add queue_h queue;
          Metrics.Hist.add service_h service;
          Metrics.Hist.add overhead_h a.sa_overhead;
          Metrics.Hist.add total_h total;
          rows :=
            {
              sr_req = req;
              sr_class = a.sa_class;
              sr_queue = queue;
              sr_service = service;
              sr_overhead = a.sa_overhead;
              sr_preempts = a.sa_preempts;
              sr_total = total;
              sr_exact = exact;
            }
            :: !rows
        end)
      tbl;
    Some
      {
        spn_requests = Hashtbl.length tbl;
        spn_complete = !complete;
        spn_verified = !verified;
        spn_queue = queue_h;
        spn_service = service_h;
        spn_overhead = overhead_h;
        spn_total = total_h;
        spn_rows =
          List.sort (fun x y -> compare y.sr_total x.sr_total) !rows;
      }
  end

let analyze ?metrics ?(overwritten = [||]) ~n_workers ~rings ~capacity ~emitted
    events =
  let chains, never = Recorder.attribute ~n_workers events in
  let timing = Recorder.detect_anomalies ~n_workers ~interval events in
  {
    r_events = events;
    r_emitted = emitted;
    r_rings = rings;
    r_capacity = capacity;
    r_overwritten = overwritten;
    r_lifecycles = Recorder.lifecycles events;
    r_chains = chains;
    r_rows = rows_of_chains chains;
    r_anomalies = never @ timing;
    r_consistency = Option.bind metrics (consistency_of chains);
    r_steals = steal_split_of events;
    r_quanta = quantum_split_of events;
    r_spans = span_split_of events;
  }

let of_runtime rt =
  let rec_ = Runtime.recorder rt in
  analyze
    ~metrics:(Runtime.metrics rt)
    ~overwritten:
      (Array.init (Recorder.n_rings rec_) (Recorder.overwritten rec_))
    ~n_workers ~rings:(Recorder.n_rings rec_)
    ~capacity:(Recorder.capacity rec_)
    ~emitted:(Recorder.total_emitted rec_)
    (Runtime.flight_events rt)

let of_dump (d : Recorder.dump) =
  analyze
    ~overwritten:d.Recorder.d_overwritten
    ~n_workers:(d.Recorder.d_n_rings - 1)
    ~rings:d.Recorder.d_n_rings ~capacity:d.Recorder.d_capacity
    ~emitted:(Array.length d.Recorder.d_events)
    d.Recorder.d_events

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let ms v = if Float.is_nan v then "-" else Printf.sprintf "%.3f" (v *. 1e3)

let us v = v *. 1e6

let print_text r =
  Printf.printf "flight record: %d event(s) retained (%d rings x %d), %d emitted\n"
    (Array.length r.r_events) r.r_rings r.r_capacity r.r_emitted;
  let lost = Array.fold_left ( + ) 0 r.r_overwritten in
  if lost > 0 then begin
    Printf.printf
      "  %d event(s) overwritten by ring wraparound — reconstructions below \
       may be truncated\n"
      lost;
    Array.iteri
      (fun ring n ->
        if n > 0 then
          Printf.printf "    ring %d: %d event(s) lost (oldest first)\n" ring n)
      r.r_overwritten
  end;
  print_newline ();
  Printf.printf "per-ULT lifecycles\n";
  Printf.printf "  %4s %10s %11s %5s %9s %7s %7s %7s %9s\n" "uid" "spawn ms"
    "finish ms" "runs" "preempts" "yields" "blocks" "steals" "run ms";
  List.iter
    (fun (lc : Recorder.lifecycle) ->
      Printf.printf "  %4d %10s %11s %5d %9d %7d %7d %7d %9s\n"
        lc.Recorder.lc_uid (ms lc.Recorder.lc_spawned)
        (ms lc.Recorder.lc_finished) lc.Recorder.lc_runs
        lc.Recorder.lc_preempts lc.Recorder.lc_yields lc.Recorder.lc_blocks
        lc.Recorder.lc_steals (ms lc.Recorder.lc_run_time))
    r.r_lifecycles;
  Printf.printf "\npreemption-latency attribution (mean us per stage)\n";
  if r.r_rows = [] then Printf.printf "  no completed preemption chains\n"
  else begin
    Printf.printf "  %4s %4s %14s %16s %13s %9s\n" "uid" "n" "fire->handler"
      "handler->switch" "switch->run" "total";
    List.iter
      (fun rw ->
        Printf.printf "  %4d %4d %14.2f %16.2f %13.2f %9.2f\n" rw.rw_uid
          rw.rw_n
          (us rw.rw_fire_to_handler)
          (us rw.rw_handler_to_switch)
          (us rw.rw_switch_to_run) (us rw.rw_total))
      r.r_rows
  end;
  (match r.r_consistency with
  | None -> ()
  | Some c ->
      Printf.printf
        "\nconsistency: %d chain(s) vs %d histogram sample(s); stage-sum p50 \
         = %.2f us, sig_to_switch p50 = %.2f us (%s)\n"
        c.cs_chains c.cs_samples (us c.cs_chain_p50) (us c.cs_hist_p50)
        (match c.cs_bucket_distance with
        | 0 -> "same bucket"
        | 1 -> "adjacent buckets"
        | d -> Printf.sprintf "%d buckets apart" d));
  (match r.r_steals with
  | None -> ()
  | Some s ->
      Printf.printf
        "\nsub-pool steal attribution: %d local, %d cross-pool overflow\n"
        s.ss_local s.ss_overflow;
      List.iter
        (fun (thief, victim, n) ->
          Printf.printf "  sub-pool %d stole %d task(s) from sub-pool %d\n"
            thief n victim)
        s.ss_pairs;
      if s.ss_batches <> [] then begin
        let raids = List.fold_left (fun acc (_, n) -> acc + n) 0 s.ss_batches in
        let tasks =
          List.fold_left (fun acc (size, n) -> acc + (size * n)) 0 s.ss_batches
        in
        Printf.printf
          "  batch sizes: %d raid(s) carried %d task(s) (%.2f per raid)\n"
          raids tasks
          (float_of_int tasks /. float_of_int (max 1 raids));
        List.iter
          (fun (size, n) ->
            Printf.printf "    size %2d: %d raid(s)\n" size n)
          s.ss_batches
      end);
  (match r.r_quanta with
  | None -> ()
  | Some q ->
      Printf.printf
        "\nadaptive-quantum attribution: %d change(s) (%d shrink, %d grow)\n"
        q.qs_changes q.qs_shrinks q.qs_grows;
      List.iter
        (fun row ->
          Printf.printf
            "  worker %d: %d change(s), quantum %s..%s ms, last %s ms\n"
            row.qr_worker row.qr_changes (ms row.qr_min) (ms row.qr_max)
            (ms row.qr_last))
        q.qs_rows);
  (match r.r_spans with
  | None -> ()
  | Some s ->
      Printf.printf
        "\nper-request spans: %d request(s), %d complete, %d/%d verified \
         (stage sum = measured sojourn, bucket-for-bucket)\n"
        s.spn_requests s.spn_complete s.spn_verified s.spn_complete;
      let stage name h =
        if Metrics.Hist.count h > 0 then
          Printf.printf
            "  %-9s n=%-6d mean %9.1f us  p50 %9.1f us  p99 %9.1f us\n" name
            (Metrics.Hist.count h)
            (us (Metrics.Hist.mean h))
            (us (Metrics.Hist.quantile h 50.0))
            (us (Metrics.Hist.quantile h 99.0))
      in
      stage "queueing" s.spn_queue;
      stage "service" s.spn_service;
      stage "overhead" s.spn_overhead;
      stage "sojourn" s.spn_total;
      let rec take n = function
        | x :: tl when n > 0 -> x :: take (n - 1) tl
        | _ -> []
      in
      (match take 5 s.spn_rows with
      | [] -> ()
      | worst ->
          Printf.printf "  slowest requests (us): %6s %5s %9s %9s %9s %8s %s\n"
            "req" "class" "queue" "service" "overhead" "preempts" "ok";
          List.iter
            (fun row ->
              Printf.printf
                "                         %6d %5d %9.1f %9.1f %9.1f %8d %s\n"
                row.sr_req row.sr_class (us row.sr_queue) (us row.sr_service)
                (us row.sr_overhead) row.sr_preempts
                (if row.sr_exact then "=" else "~"))
            worst));
  Printf.printf "\nanomalies: %s\n"
    (if r.r_anomalies = [] then "none"
     else
       String.concat "\n  "
         ("" :: List.map Recorder.anomaly_to_string r.r_anomalies))

(* Minimal JSON emission; NaN (open spans, lost spawns) maps to null. *)
let jf v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json r =
  let b = Buffer.create 4096 in
  let lc_json (lc : Recorder.lifecycle) =
    Printf.sprintf
      "{\"uid\":%d,\"spawned\":%s,\"finished\":%s,\"runs\":%d,\"preempts\":%d,\"yields\":%d,\"blocks\":%d,\"steals\":%d,\"run_time\":%s}"
      lc.Recorder.lc_uid (jf lc.Recorder.lc_spawned)
      (jf lc.Recorder.lc_finished) lc.Recorder.lc_runs lc.Recorder.lc_preempts
      lc.Recorder.lc_yields lc.Recorder.lc_blocks lc.Recorder.lc_steals
      (jf lc.Recorder.lc_run_time)
  in
  let chain_json (c : Recorder.chain) =
    Printf.sprintf
      "{\"worker\":%d,\"uid\":%d,\"next_uid\":%d,\"mode\":%d,\"t0\":%s,\"fire_to_handler\":%s,\"handler_to_switch\":%s,\"switch_to_run\":%s,\"total\":%s}"
      c.Recorder.at_worker c.Recorder.at_uid c.Recorder.at_next_uid
      c.Recorder.at_mode (jf c.Recorder.at_t0)
      (jf c.Recorder.at_fire_to_handler)
      (jf c.Recorder.at_handler_to_switch)
      (jf c.Recorder.at_switch_to_run)
      (jf (Recorder.chain_total c))
  in
  Buffer.add_string b "{";
  Buffer.add_string b
    (Printf.sprintf
       "\"events\":%d,\"rings\":%d,\"capacity\":%d,\"emitted\":%d,\"overwritten\":[%s],"
       (Array.length r.r_events) r.r_rings r.r_capacity r.r_emitted
       (String.concat ","
          (Array.to_list (Array.map string_of_int r.r_overwritten))));
  Buffer.add_string b "\"lifecycles\":[";
  Buffer.add_string b
    (String.concat "," (List.map lc_json r.r_lifecycles));
  Buffer.add_string b "],\"chains\":[";
  Buffer.add_string b (String.concat "," (List.map chain_json r.r_chains));
  Buffer.add_string b "],\"anomalies\":[";
  Buffer.add_string b
    (String.concat ","
       (List.map
          (fun a -> jstr (Recorder.anomaly_to_string a))
          r.r_anomalies));
  Buffer.add_string b "]";
  (match r.r_consistency with
  | None -> ()
  | Some c ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"consistency\":{\"chains\":%d,\"samples\":%d,\"chain_p50\":%s,\"hist_p50\":%s,\"bucket_distance\":%d}"
           c.cs_chains c.cs_samples (jf c.cs_chain_p50) (jf c.cs_hist_p50)
           c.cs_bucket_distance));
  (match r.r_steals with
  | None -> ()
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"steals\":{\"local\":%d,\"overflow\":%d,\"pairs\":[%s],\"batches\":[%s]}"
           s.ss_local s.ss_overflow
           (String.concat ","
              (List.map
                 (fun (t, v, n) ->
                   Printf.sprintf
                     "{\"thief\":%d,\"victim\":%d,\"count\":%d}" t v n)
                 s.ss_pairs))
           (String.concat ","
              (List.map
                 (fun (size, n) ->
                   Printf.sprintf "{\"size\":%d,\"count\":%d}" size n)
                 s.ss_batches))));
  (match r.r_quanta with
  | None -> ()
  | Some q ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"quanta\":{\"changes\":%d,\"shrinks\":%d,\"grows\":%d,\"workers\":[%s]}"
           q.qs_changes q.qs_shrinks q.qs_grows
           (String.concat ","
              (List.map
                 (fun row ->
                   Printf.sprintf
                     "{\"worker\":%d,\"changes\":%d,\"min\":%s,\"max\":%s,\"last\":%s}"
                     row.qr_worker row.qr_changes (jf row.qr_min)
                     (jf row.qr_max) (jf row.qr_last))
                 q.qs_rows))));
  (match r.r_spans with
  | None -> ()
  | Some s ->
      let stage h =
        if Metrics.Hist.count h = 0 then "null"
        else
          Printf.sprintf "{\"n\":%d,\"mean\":%s,\"p50\":%s,\"p99\":%s}"
            (Metrics.Hist.count h)
            (jf (Metrics.Hist.mean h))
            (jf (Metrics.Hist.quantile h 50.0))
            (jf (Metrics.Hist.quantile h 99.0))
      in
      Buffer.add_string b
        (Printf.sprintf
           ",\"spans\":{\"requests\":%d,\"complete\":%d,\"verified\":%d,\"queueing\":%s,\"service\":%s,\"overhead\":%s,\"sojourn\":%s}"
           s.spn_requests s.spn_complete s.spn_verified (stage s.spn_queue)
           (stage s.spn_service) (stage s.spn_overhead) (stage s.spn_total)));
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Smoke checks ([repro observe --smoke], wired into @obs-smoke)       *)
(* ------------------------------------------------------------------ *)

let smoke ~spawned r =
  let check cond fmt =
    Printf.ksprintf (fun msg -> if cond then Ok () else Error msg) fmt
  in
  let ( let* ) = Result.bind in
  let* () =
    check (Array.length r.r_events > 0) "no events retained in the ring"
  in
  let* () =
    List.fold_left
      (fun acc uid ->
        let* () = acc in
        match
          List.find_opt
            (fun lc -> lc.Recorder.lc_uid = uid)
            r.r_lifecycles
        with
        | None -> Error (Printf.sprintf "ULT %d has no lifecycle" uid)
        | Some lc ->
            check
              (lc.Recorder.lc_runs > 0 && lc.Recorder.lc_spans <> [])
              "ULT %d lifecycle is empty (%d runs, %d spans)" uid
              lc.Recorder.lc_runs
              (List.length lc.Recorder.lc_spans))
      (Ok ()) spawned
  in
  let* () =
    check (r.r_chains <> []) "no completed preemption-attribution chains"
  in
  let* () =
    match r.r_consistency with
    | None -> Error "no live metrics to cross-check against"
    | Some c ->
        let* () =
          check (c.cs_chains = c.cs_samples)
            "chain count %d <> sig_to_switch sample count %d" c.cs_chains
            c.cs_samples
        in
        check
          (c.cs_bucket_distance <= 1)
          "stage-sum p50 %.3g and histogram p50 %.3g are %d buckets apart"
          c.cs_chain_p50 c.cs_hist_p50 c.cs_bucket_distance
  in
  let json = Chrome_trace.to_json (Chrome_trace.of_flight r.r_events) in
  match Chrome_trace.validate json with
  | Ok n -> check (n > 0) "flight-record Chrome trace is empty"
  | Error e -> Error (Printf.sprintf "flight-record Chrome trace invalid: %s" e)
