(* Flight recorder (Preempt_core.Recorder): ring wraparound as a QCheck
   property against a reference model, binary-dump round-trips,
   lifecycle reconstruction on a hand-built stream, attribution
   exactness against the live sig_to_switch histogram, the
   check-integration path (a counterexample's flight dump decodes), and
   ring allocation on first enable. *)

open Preempt_core

(* ------------------------------------------------------------------ *)
(* Wraparound property: after any emission sequence, every ring holds
   exactly the last [capacity] events emitted to it, oldest first, with
   monotone emission indices — and the binary dump round-trips the
   whole decoded state.                                                *)
(* ------------------------------------------------------------------ *)

let ops_arb =
  let open QCheck in
  let gen =
    Gen.(
      triple (int_range 1 40) (int_range 1 3)
        (list_size (int_range 0 300)
           (triple (int_range 0 100) (int_range 1 21) (int_range 0 1000))))
  in
  let print (cap, nw, ops) =
    Printf.sprintf "capacity=%d n_workers=%d ops=%d" cap nw (List.length ops)
  in
  make ~print gen

let wraparound_prop (cap, nw, ops) =
  let t = Recorder.create ~n_workers:nw ~capacity:cap in
  Recorder.set_enabled t true;
  let n_rings = Recorder.n_rings t in
  (* Reference: per-ring list of emitted records, newest first. *)
  let model = Array.make n_rings [] in
  let ts = ref 0.0 in
  List.iter
    (fun (r, code, a) ->
      let ring = r mod n_rings in
      ts := !ts +. 1e-6;
      Recorder.emit t ring !ts code a (a * 2);
      model.(ring) <- (!ts, code, a, a * 2) :: model.(ring))
    ops;
  let ok = ref true in
  let check_ring decoded ring =
    let emitted = List.length model.(ring) in
    let expect =
      List.filteri (fun i _ -> i < min cap emitted) model.(ring) |> List.rev
    in
    let got =
      Array.to_list decoded |> List.filter (fun e -> e.Recorder.e_ring = ring)
    in
    if List.length got <> List.length expect then ok := false
    else
      List.iteri
        (fun i ((ts, code, a, b), e) ->
          if
            e.Recorder.e_ts <> ts || e.Recorder.e_code <> code
            || e.Recorder.e_a <> a || e.Recorder.e_b <> b
            || e.Recorder.e_seq <> emitted - List.length expect + i
          then ok := false)
        (List.combine expect got)
  in
  let all = Recorder.events t in
  for ring = 0 to n_rings - 1 do
    check_ring all ring;
    check_ring (Recorder.ring_events t ring) ring
  done;
  (* Round-trip: the dump decodes to the identical event stream. *)
  (match Recorder.decode (Recorder.encode t) with
  | Error _ -> ok := false
  | Ok d ->
      if
        d.Recorder.d_n_rings <> n_rings
        || d.Recorder.d_capacity <> cap
        || d.Recorder.d_events <> all
      then ok := false);
  !ok

let wraparound_check =
  QCheck.Test.make ~count:300 ~name:"ring = last-capacity suffix; dump round-trips"
    ops_arb wraparound_prop

(* ------------------------------------------------------------------ *)

let test_decode_garbage () =
  (match Recorder.decode "not a flight record" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage decoded");
  match Recorder.decode "FLTREC01truncated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated dump decoded"

(* The kernel's observer codes are the recorder's: the six that saved
   dumps carry keep their numbers, every code has a name of its own,
   and each survives a dump. *)
let test_kernel_codes () =
  let module K = Oskern.Kernel in
  let kernel =
    [
      (Recorder.ev_timer_fire, K.obs_timer_fire, 16);
      (Recorder.ev_sig_deliver, K.obs_sig_deliver, 17);
      (Recorder.ev_futex_wait, K.obs_futex_wait, 18);
      (Recorder.ev_futex_wake, K.obs_futex_wake, 19);
      (Recorder.ev_klt_dispatch, K.obs_klt_dispatch, 20);
      (Recorder.ev_klt_block, K.obs_klt_block, 21);
      (Recorder.ev_klt_exit, K.obs_klt_exit, 31);
      (Recorder.ev_klt_preempt, K.obs_klt_preempt, 32);
      (Recorder.ev_klt_migrate, K.obs_klt_migrate, 33);
      (Recorder.ev_newidle_pull, K.obs_newidle_pull, 34);
      (Recorder.ev_balance_move, K.obs_balance_move, 35);
    ]
  in
  List.iter
    (fun (ev, obs, n) ->
      Alcotest.(check int) (Printf.sprintf "code %d bound to the kernel's" n) obs ev;
      Alcotest.(check int) (Printf.sprintf "code %d number" n) n ev)
    kernel;
  let codes =
    List.sort_uniq compare
      (List.init 30 (fun i -> i + 1)
      @ (Recorder.ev_preempt_declined :: List.map (fun (ev, _, _) -> ev) kernel))
  in
  let names = List.map Recorder.code_name codes in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is named") false (String.starts_with ~prefix:"code" n))
    names;
  Alcotest.(check int) "names distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  let t = Recorder.create ~n_workers:1 ~capacity:64 in
  Recorder.set_enabled t true;
  List.iteri
    (fun i (ev, _, _) -> Recorder.emit t (Recorder.global_ring t) (float_of_int i) ev i (-i))
    kernel;
  match Recorder.decode (Recorder.encode t) with
  | Error e -> Alcotest.failf "dump does not decode: %s" e
  | Ok d ->
      Alcotest.(check (list (triple int int int))) "kernel events round-trip"
        (List.mapi (fun i (ev, _, _) -> (ev, i, -i)) kernel)
        (Array.to_list d.Recorder.d_events
        |> List.map (fun e -> (e.Recorder.e_code, e.Recorder.e_a, e.Recorder.e_b)))

(* Hand-built stream through the lifecycle state machine: spawn ->
   ready -> run -> preempt -> run -> block -> wake -> run -> finish. *)
let test_lifecycle_reconstruction () =
  let t = Recorder.create ~n_workers:1 ~capacity:64 in
  Recorder.set_enabled t true;
  let g = Recorder.global_ring t in
  Recorder.emit t g 0.0 Recorder.ev_spawn 7 0;
  Recorder.emit t g 0.0 Recorder.ev_ready 7 0;
  Recorder.emit t 0 1.0 Recorder.ev_run 7 0;
  Recorder.emit t 0 2.0 Recorder.ev_preempt 7 1;
  Recorder.emit t 0 3.0 Recorder.ev_resume 7 0;
  Recorder.emit t 0 4.0 Recorder.ev_block 7 0;
  Recorder.emit t g 5.0 Recorder.ev_ready 7 0;
  Recorder.emit t 0 6.0 Recorder.ev_run 7 0;
  Recorder.emit t g 7.0 Recorder.ev_finish 7 0;
  match Recorder.lifecycles (Recorder.events t) with
  | [ lc ] ->
      Alcotest.(check int) "uid" 7 lc.Recorder.lc_uid;
      Alcotest.(check (float 0.0)) "spawned" 0.0 lc.Recorder.lc_spawned;
      Alcotest.(check (float 0.0)) "finished" 7.0 lc.Recorder.lc_finished;
      Alcotest.(check int) "runs" 3 lc.Recorder.lc_runs;
      Alcotest.(check int) "preempts" 1 lc.Recorder.lc_preempts;
      Alcotest.(check int) "blocks" 1 lc.Recorder.lc_blocks;
      (* run slices: 1->2, 3->4, 6->7 *)
      Alcotest.(check (float 1e-9)) "run time" 3.0 lc.Recorder.lc_run_time;
      Alcotest.(check bool) "all spans closed" true
        (List.for_all
           (fun s -> not (Float.is_nan s.Recorder.s_to))
           lc.Recorder.lc_spans)
  | lcs -> Alcotest.failf "expected 1 lifecycle, got %d" (List.length lcs)

(* A KLT-switching preemption declined for want of a spare KLT ends its
   chain as designed: no chain, no anomaly.  A flagged preemption that
   neither switches nor is declined is still never-landed. *)
let test_declined_is_not_lost () =
  let attribute codes =
    let t = Recorder.create ~n_workers:1 ~capacity:64 in
    Recorder.set_enabled t true;
    List.iteri (fun i code -> Recorder.emit t 0 (float_of_int (i + 1)) code 7 0) codes;
    let chains, anomalies = Recorder.attribute ~n_workers:1 (Recorder.events t) in
    (List.length chains, List.map Recorder.anomaly_to_string anomalies)
  in
  Alcotest.(check (pair int (list string))) "declined" (0, [])
    (attribute [ Recorder.ev_sig_post; Recorder.ev_preempt_req; Recorder.ev_preempt_declined ]);
  Alcotest.(check (pair int (list string))) "no switch"
    (0, [ "never-landed: worker0 flagged preemption of ult7 at 1.000000s but no switch completed" ])
    (attribute [ Recorder.ev_sig_post; Recorder.ev_preempt_req ])

(* Attribution exactness on a real preemptive run: the stage sums,
   rebucketed, must reproduce the runtime's sig_to_switch histogram
   bucket-for-bucket — same samples from the same timestamps, so no
   one-bucket tolerance is needed here. *)
let test_attribution_matches_histogram () =
  let rt, uids = Experiments.Observe.run_workload () in
  let report = Experiments.Observe.of_runtime rt in
  let m = Runtime.metrics rt in
  let chains = report.Experiments.Observe.r_chains in
  Alcotest.(check bool) "chains found" true (chains <> []);
  let rebuilt = Metrics.Hist.create () in
  List.iter
    (fun c -> Metrics.Hist.add rebuilt (Recorder.chain_total c))
    chains;
  Alcotest.(check int) "sample count"
    (Metrics.Hist.count m.Metrics.s_sig_to_switch)
    (Metrics.Hist.count rebuilt);
  for b = 0 to Metrics.Hist.n_buckets - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bucket %d" b)
      (Metrics.Hist.bucket_count m.Metrics.s_sig_to_switch b)
      (Metrics.Hist.bucket_count rebuilt b)
  done;
  (* And the packaged smoke checks agree. *)
  match Experiments.Observe.smoke ~spawned:uids report with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* Per-ring overwritten counters: wraparound losses are visible live,
   survive the binary dump (recovered from each ring's emitted-vs-
   stored header counts, so the FLTREC01 format is unchanged), and
   surface in the observe report built from that dump. *)
let test_overwritten_through_dump () =
  let cap = 3 in
  let t = Recorder.create ~n_workers:2 ~capacity:cap in
  Recorder.set_enabled t true;
  let n_rings = Recorder.n_rings t in
  (* Ring 0 wraps (7 emits into 3 slots), the last ring does not. *)
  for i = 1 to 7 do
    Recorder.emit t 0 (float_of_int i *. 1e-6) Recorder.ev_timer_fire i 0
  done;
  let last = n_rings - 1 in
  for i = 1 to 2 do
    Recorder.emit t last (float_of_int i *. 1e-6) Recorder.ev_timer_fire i 0
  done;
  Alcotest.(check int) "wrapped ring lost 4" 4 (Recorder.overwritten t 0);
  Alcotest.(check int) "unwrapped ring lost 0" 0 (Recorder.overwritten t last);
  Alcotest.(check int) "total" 4 (Recorder.total_overwritten t);
  let live = Array.init n_rings (Recorder.overwritten t) in
  match Recorder.decode (Recorder.encode t) with
  | Error e -> Alcotest.failf "dump does not decode: %s" e
  | Ok d ->
      Alcotest.(check (array int)) "dump carries per-ring losses" live
        d.Recorder.d_overwritten;
      let rep = Experiments.Observe.of_dump d in
      Alcotest.(check (array int)) "observe report surfaces them" live
        rep.Experiments.Observe.r_overwritten

(* A caught violation carries a decodable flight record whose
   reconstruction shows the stuck threads. *)
let test_counterexample_flight_decodes () =
  let s =
    match Check.Scenarios.find "deadlock" with
    | Some s -> s
    | None -> Alcotest.fail "deadlock scenario missing"
  in
  let r =
    Check.run ~seed:1 ~budget:s.Check.Scenarios.sbudget
      ~strategy:Check.Random_walk s.Check.Scenarios.prog
  in
  match r.Check.result with
  | `Ok -> Alcotest.fail "deadlock not caught"
  | `Violation cx -> (
      Alcotest.(check bool) "flight dump attached" true
        (cx.Check.cx_flight <> "");
      match Recorder.decode cx.Check.cx_flight with
      | Error e -> Alcotest.failf "flight dump does not decode: %s" e
      | Ok d ->
          Alcotest.(check bool) "events retained" true
            (Array.length d.Recorder.d_events > 0);
          let lcs = Recorder.lifecycles d.Recorder.d_events in
          Alcotest.(check bool) "both ULTs reconstructed" true
            (List.length lcs >= 2);
          Alcotest.(check bool) "stuck threads never finish" true
            (List.for_all
               (fun lc -> Float.is_nan lc.Recorder.lc_finished)
               lcs))

(* Rings are allocated on first enable: a recorder that is never
   switched on, the default for a simulated runtime, holds no ring
   storage.  One ring of 4096 slots is over 16k words. *)
let test_disabled_holds_no_rings () =
  let words x = Obj.reachable_words (Obj.repr x) in
  let t = Recorder.create ~n_workers:56 ~capacity:4096 in
  Alcotest.(check bool) "disabled recorder under 256 words" true (words t < 256);
  let eng = Desim.Engine.create () in
  let kernel = Oskern.Kernel.create eng (Oskern.Machine.with_cores Oskern.Machine.skylake 56) in
  let rt = Runtime.create kernel ~n_workers:56 in
  Alcotest.(check bool) "default runtime's recorder under 256 words" true
    (words (Runtime.recorder rt) < 256);
  Alcotest.(check int) "no events" 0 (Array.length (Runtime.flight_events rt));
  match Recorder.decode (Runtime.flight_dump rt) with
  | Error e -> Alcotest.failf "empty dump does not decode: %s" e
  | Ok d ->
      Alcotest.(check int) "dump keeps the ring count" 57 d.Recorder.d_n_rings;
      Alcotest.(check int) "dump keeps the capacity" 4096 d.Recorder.d_capacity

(* Enabling after create gives full-capacity rings, and wraparound is
   counted as before. *)
let test_enable_after_create () =
  let cap = 4096 in
  let eng = Desim.Engine.create () in
  let kernel = Oskern.Kernel.create eng (Oskern.Machine.with_cores Oskern.Machine.skylake 2) in
  let rt = Runtime.create kernel ~n_workers:2 in
  Runtime.set_recorder_enabled rt true;
  let t = Runtime.recorder rt in
  Alcotest.(check int) "capacity from the config" cap (Recorder.capacity t);
  for i = 1 to cap do
    Recorder.emit t 0 (float_of_int i) Recorder.ev_run i 0
  done;
  Alcotest.(check int) "full ring kept" cap (Array.length (Recorder.ring_events t 0));
  Alcotest.(check int) "nothing overwritten yet" 0 (Recorder.overwritten t 0);
  for i = cap + 1 to cap + 10 do
    Recorder.emit t 0 (float_of_int i) Recorder.ev_run i 0
  done;
  let evs = Recorder.ring_events t 0 in
  Alcotest.(check int) "still full" cap (Array.length evs);
  Alcotest.(check int) "wraparound counted" 10 (Recorder.overwritten t 0);
  Alcotest.(check int) "oldest kept" 11 evs.(0).Recorder.e_a;
  Alcotest.(check int) "newest kept" (cap + 10) evs.(cap - 1).Recorder.e_a;
  Runtime.set_recorder_enabled rt false;
  Runtime.set_recorder_enabled rt true;
  Alcotest.(check int) "re-enabling keeps the record" cap
    (Array.length (Recorder.ring_events t 0))

let suite =
  [
    QCheck_alcotest.to_alcotest wraparound_check;
    Alcotest.test_case "decode rejects garbage" `Quick test_decode_garbage;
    Alcotest.test_case "kernel codes named and round-trip" `Quick test_kernel_codes;
    Alcotest.test_case "lifecycle reconstruction" `Quick
      test_lifecycle_reconstruction;
    Alcotest.test_case "declined preemption is not lost" `Quick test_declined_is_not_lost;
    Alcotest.test_case "attribution matches sig_to_switch" `Quick
      test_attribution_matches_histogram;
    Alcotest.test_case "overwritten counters through dumps" `Quick
      test_overwritten_through_dump;
    Alcotest.test_case "counterexample flight decodes" `Quick
      test_counterexample_flight_decodes;
    Alcotest.test_case "disabled recorder holds no rings" `Quick
      test_disabled_holds_no_rings;
    Alcotest.test_case "enable after create records full capacity" `Quick
      test_enable_after_create;
  ]
