(* The observability layer: histogram bucketing exactness, counter
   monotonicity under a real preemptive workload, snapshot determinism
   across identical seeded runs, and the zero-recording disabled path. *)

open Desim
open Oskern
open Preempt_core

module H = Metrics.Hist

(* ------------------------------------------------------------------ *)
(* Histogram unit tests. *)

let test_bucket_boundaries () =
  (* A value exactly at a bucket's lower edge lands in that bucket, and
     the value just below (the previous upper edge shrunk one ulp) does
     not — exhaustively, for every core bucket. *)
  for b = 1 to H.n_buckets - 2 do
    let lo, hi = H.bucket_bounds b in
    Alcotest.(check int) (Printf.sprintf "lower edge of bucket %d" b) b (H.bucket_of lo);
    let below = Float.pred lo in
    Alcotest.(check int)
      (Printf.sprintf "just below lower edge of bucket %d" b)
      (b - 1) (H.bucket_of below);
    (* The upper edge belongs to the next bucket. *)
    if b < H.n_buckets - 2 then
      Alcotest.(check int) (Printf.sprintf "upper edge of bucket %d" b) (b + 1) (H.bucket_of hi)
  done

let test_bucket_extremes () =
  Alcotest.(check int) "zero underflows" 0 (H.bucket_of 0.0);
  Alcotest.(check int) "negative underflows" 0 (H.bucket_of (-1.0));
  Alcotest.(check int) "sub-ns underflows" 0 (H.bucket_of 1e-12);
  Alcotest.(check int) "nan underflows" 0 (H.bucket_of Float.nan);
  Alcotest.(check int) "huge overflows" (H.n_buckets - 1) (H.bucket_of 1e9);
  Alcotest.(check int) "inf overflows" (H.n_buckets - 1) (H.bucket_of infinity);
  (* 1e2 is the exclusive top of the covered range. *)
  Alcotest.(check int) "range top overflows" (H.n_buckets - 1) (H.bucket_of 100.0);
  (* 1 ns is the inclusive bottom: first core bucket. *)
  Alcotest.(check int) "range bottom" 1 (H.bucket_of 1e-9)

let test_hist_add_count_percentile () =
  let h = H.create () in
  for _ = 1 to 90 do
    H.add h 1e-6
  done;
  for _ = 1 to 10 do
    H.add h 1e-3
  done;
  Alcotest.(check int) "count" 100 (H.count h);
  Alcotest.(check (float 1e-12)) "sum" (90. *. 1e-6 +. 10. *. 1e-3) (H.sum h);
  let within name p x =
    let lo, hi = H.bucket_bounds (H.bucket_of x) in
    let q = H.quantile h p in
    if not (lo <= q && q < hi) then Alcotest.failf "%s: %g outside [%g, %g)" name q lo hi
  in
  within "p50 in the 1us bucket" 50.0 1e-6;
  within "p99 in the 1ms bucket" 99.0 1e-3;
  (* nonzero rows account for every sample. *)
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 (H.nonzero h) in
  Alcotest.(check int) "nonzero covers all" 100 total

(* The interpolating estimator's edge cases: the serving report leans
   on p99.9, which routinely asks for a rank beyond the last occupied
   bucket of a small histogram. *)
let test_quantile_edges () =
  let h = H.create () in
  Alcotest.check_raises "empty quantile"
    (Invalid_argument "Metrics.Hist.quantile: empty histogram") (fun () ->
      ignore (H.quantile h 50.0));
  (* Single occupied bucket: every quantile interpolates inside that
     bucket's bounds and stays monotone in p. *)
  for _ = 1 to 7 do
    H.add h 1e-6
  done;
  let lo, hi = H.bucket_bounds (H.bucket_of 1e-6) in
  let prev = ref 0.0 in
  List.iter
    (fun p ->
      let q = H.quantile h p in
      Alcotest.(check bool)
        (Printf.sprintf "single bucket: q(%g) within bucket bounds" p)
        true
        (q >= lo && q <= hi);
      Alcotest.(check bool)
        (Printf.sprintf "single bucket: q(%g) monotone in p" p)
        true (q >= !prev);
      prev := q)
    [ 0.0; 50.0; 99.0; 99.9; 100.0 ];
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Metrics.Hist.quantile: p outside [0,100]") (fun () ->
      ignore (H.quantile h 100.5));
  (* A p99.9 rank beyond the last occupied bucket resolves inside that
     bucket (never scans past it), even with samples split across
     buckets below. *)
  let h = H.create () in
  for _ = 1 to 9 do
    H.add h 1e-6
  done;
  H.add h 1e-4;
  let lo, hi = H.bucket_bounds (H.bucket_of 1e-4) in
  let q = H.quantile h 99.9 in
  Alcotest.(check bool) "p99.9 lands in the last occupied bucket" true
    (q >= lo && q <= hi)

(* The merge [Serve] uses for its cross-class aggregate: bucket-wise
   sum, so quantiles of the merge equal the
   quantiles of adding both sample streams to one histogram. *)
let test_merge () =
  let a = H.create () and b = H.create () in
  let m0 = H.merge a b in
  Alcotest.(check int) "empty merge count" 0 (H.count m0);
  for _ = 1 to 90 do
    H.add a 1e-6
  done;
  for _ = 1 to 10 do
    H.add b 1e-3
  done;
  let m = H.merge a b in
  Alcotest.(check int) "merged count" 100 (H.count m);
  Alcotest.(check (float 1e-12)) "merged sum"
    ((90. *. 1e-6) +. (10. *. 1e-3))
    (H.sum m);
  (* Inputs untouched (merge is fresh, not in-place). *)
  Alcotest.(check int) "left input untouched" 90 (H.count a);
  Alcotest.(check int) "right input untouched" 10 (H.count b);
  H.add m 1.0;
  Alcotest.(check int) "merge is independent of inputs" 90 (H.count a)

let test_quantile_after_merge () =
  (* Quantiles of the merge match a single histogram fed the union of
     both streams — exactly, since merge is bucket-wise. *)
  let a = H.create () and b = H.create () and whole = H.create () in
  let feed h v = H.add h v in
  for i = 1 to 200 do
    let v = 1e-6 *. float_of_int i in
    feed (if i mod 3 = 0 then a else b) v;
    feed whole v
  done;
  let m = H.merge a b in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-15))
        (Printf.sprintf "q(%g) of merge = q of union" p)
        (H.quantile whole p) (H.quantile m p))
    [ 0.0; 10.0; 50.0; 90.0; 99.0; 99.9; 100.0 ];
  (* Merging with empty is the identity on counts and quantiles. *)
  let id = H.merge whole (H.create ()) in
  Alcotest.(check int) "identity count" (H.count whole) (H.count id);
  Alcotest.(check (float 1e-15)) "identity p50" (H.quantile whole 50.0)
    (H.quantile id 50.0)

(* ------------------------------------------------------------------ *)
(* Runtime integration. *)

(* [recorder], when given, also turns the flight recorder on with that
   ring capacity. *)
let run_workload ?(enable = true) ?(seed = 42) ?recorder () =
  let eng = Engine.create ~seed () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 2) in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval = 1e-3;
      metrics_enabled = enable;
      recorder_enabled = Option.is_some recorder;
      recorder_capacity =
        Option.value recorder ~default:Config.default.Config.recorder_capacity;
    }
  in
  let rt = Runtime.create ~config kernel ~n_workers:2 in
  let mid = ref None in
  for i = 0 to 3 do
    ignore
      (Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 2)
         ~name:(Printf.sprintf "w%d" i)
         (fun () ->
           Ult.compute 6e-3;
           ignore (Ult.blocking_io 2e-3);
           Ult.compute 2e-3))
  done;
  ignore (Engine.after eng 5e-3 (fun () -> mid := Some (Runtime.metrics rt)));
  Runtime.start rt;
  Engine.run ~until:10.0 eng;
  (rt, Runtime.metrics rt, !mid)

let ge_counters label (a : Metrics.wcounters) (b : Metrics.wcounters) =
  let check field av bv =
    if av < bv then
      Alcotest.failf "%s: %s decreased (%d -> %d)" label field bv av
  in
  check "preempts" a.Metrics.preempts b.Metrics.preempts;
  check "signal_yields" a.Metrics.signal_yields b.Metrics.signal_yields;
  check "klt_switches" a.Metrics.klt_switches b.Metrics.klt_switches;
  check "pool_gets" a.Metrics.pool_gets b.Metrics.pool_gets;
  check "pool_puts" a.Metrics.pool_puts b.Metrics.pool_puts;
  check "steals" a.Metrics.steals b.Metrics.steals;
  check "timer_fires" a.Metrics.timer_fires b.Metrics.timer_fires;
  check "io_restarts" a.Metrics.io_restarts b.Metrics.io_restarts

let test_counters_monotonic_and_nonzero () =
  let rt, final, mid = run_workload () in
  let mid = Option.get mid in
  (* Every counter is monotone: final >= mid-run snapshot, per worker
     and in total. *)
  ge_counters "totals" final.Metrics.s_totals mid.Metrics.s_totals;
  Array.iteri
    (fun r c -> ge_counters (Printf.sprintf "worker%d" r) c mid.Metrics.s_workers.(r))
    final.Metrics.s_workers;
  (* The acceptance check: a KLT-switching workload reports nonzero
     preemptions with a real signal-to-switch latency distribution. *)
  let t = final.Metrics.s_totals in
  Alcotest.(check bool) "preempts > 0" true (t.Metrics.preempts > 0);
  Alcotest.(check bool) "klt switches > 0" true (t.Metrics.klt_switches > 0);
  Alcotest.(check bool) "pool gets > 0" true (t.Metrics.pool_gets > 0);
  Alcotest.(check bool) "timer fires > 0" true (t.Metrics.timer_fires > 0);
  Alcotest.(check bool) "io restarts > 0" true (t.Metrics.io_restarts > 0);
  Alcotest.(check bool) "sig->switch sampled" true
    (H.count final.Metrics.s_sig_to_switch > 0);
  let p50 = H.quantile final.Metrics.s_sig_to_switch 50.0 in
  let p99 = H.quantile final.Metrics.s_sig_to_switch 99.0 in
  Alcotest.(check bool) "p50 > 0" true (p50 > 0.0);
  Alcotest.(check bool) "p99 >= p50" true (p99 >= p50);
  Alcotest.(check bool) "quanta recorded" true (H.count final.Metrics.s_run_quantum > 0);
  Alcotest.(check bool) "sched delays recorded" true
    (H.count final.Metrics.s_sched_delay > 0);
  (* The runtime's own counters agree with the metric totals. *)
  Alcotest.(check int) "preempt_signals agrees" (Runtime.preempt_signals rt)
    t.Metrics.preempts;
  Alcotest.(check int) "klt_switches agrees" (Runtime.klt_switches rt) t.Metrics.klt_switches

let test_snapshot_deterministic () =
  let _, s1, m1 = run_workload ~seed:7 () in
  let _, s2, m2 = run_workload ~seed:7 () in
  Alcotest.(check bool) "final snapshots identical" true (s1 = s2);
  Alcotest.(check bool) "mid-run snapshots identical" true (m1 = m2)

let test_disabled_records_nothing () =
  let _, s, _ = run_workload ~enable:false () in
  let t = s.Metrics.s_totals in
  Alcotest.(check int) "no preempts" 0 t.Metrics.preempts;
  Alcotest.(check int) "no sigyields" 0 t.Metrics.signal_yields;
  Alcotest.(check int) "no klt switches" 0 t.Metrics.klt_switches;
  Alcotest.(check int) "no pool gets" 0 t.Metrics.pool_gets;
  Alcotest.(check int) "no pool puts" 0 t.Metrics.pool_puts;
  Alcotest.(check int) "no steals" 0 t.Metrics.steals;
  Alcotest.(check int) "no timer fires" 0 t.Metrics.timer_fires;
  Alcotest.(check int) "no io restarts" 0 t.Metrics.io_restarts;
  Alcotest.(check int) "no sync blocks" 0 s.Metrics.s_sync_blocks;
  Alcotest.(check int) "no sync wakeups" 0 s.Metrics.s_sync_wakeups;
  Alcotest.(check int) "empty sig->switch" 0 (H.count s.Metrics.s_sig_to_switch);
  Alcotest.(check int) "empty sched delay" 0 (H.count s.Metrics.s_sched_delay);
  Alcotest.(check int) "empty run quantum" 0 (H.count s.Metrics.s_run_quantum)

let test_enable_midway () =
  (* set_metrics_enabled mid-run starts recording without garbage from
     stale timestamps. *)
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 1) in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval = 1e-3;
    }
  in
  let rt = Runtime.create ~config kernel ~n_workers:1 in
  for i = 0 to 1 do
    ignore
      (Runtime.spawn rt ~kind:Types.Signal_yield ~home:0
         ~name:(Printf.sprintf "m%d" i)
         (fun () -> Ult.compute 8e-3))
  done;
  ignore (Engine.after eng 4e-3 (fun () -> Runtime.set_metrics_enabled rt true));
  Runtime.start rt;
  Engine.run ~until:10.0 eng;
  let s = Runtime.metrics rt in
  Alcotest.(check bool) "recorded after enabling" true
    (s.Metrics.s_totals.Metrics.preempts > 0);
  (* Run slices last about one 1 ms interval.  A slice that started
     before the enable has no start time, so it takes no sample; a
     stale start would read as one several intervals long. *)
  Alcotest.(check bool) "run quanta recorded" true (H.count s.Metrics.s_run_quantum > 0);
  Array.iter
    (fun (lo, hi, c) ->
      if hi > 2.0 *. config.Config.interval then
        Alcotest.failf "%d run-quantum samples in [%g, %g) s, past 2 intervals" c lo hi)
    (H.nonzero s.Metrics.s_run_quantum);
  (* No sched-delay sample can exceed the elapsed virtual time (a stale
     pre-enable timestamp would). *)
  Array.iter
    (fun (_, hi, c) ->
      if c > 0 then
        Alcotest.(check bool) "sched delay plausible" true
          (hi <= Engine.now eng || hi = infinity))
    (H.nonzero s.Metrics.s_sched_delay)

let test_usync_counters () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 2) in
  let config = { Config.default with Config.metrics_enabled = true } in
  let rt = Runtime.create ~config kernel ~n_workers:2 in
  let m = Usync.Mutex.create rt in
  for i = 0 to 3 do
    ignore
      (Runtime.spawn rt ~home:0 ~name:(Printf.sprintf "l%d" i) (fun () ->
           Usync.Mutex.lock m;
           Ult.compute 1e-3;
           Usync.Mutex.unlock m))
  done;
  Runtime.start rt;
  Engine.run eng;
  let s = Runtime.metrics rt in
  Alcotest.(check int) "three blocked" 3 s.Metrics.s_sync_blocks;
  Alcotest.(check int) "three handoffs" 3 s.Metrics.s_sync_wakeups

(* The recorder's rings do not feed Metrics: metrics alone, metrics
   beside rings small enough to wrap, and metrics beside default rings
   give equal snapshots. *)
let test_counters_independent_of_rings () =
  let _, alone, _ = run_workload ~seed:7 () in
  let rt, small, _ = run_workload ~seed:7 ~recorder:8 () in
  Alcotest.(check bool) "small rings wrapped" true
    (Recorder.total_overwritten (Runtime.recorder rt) > 0);
  let _, full, _ =
    run_workload ~seed:7 ~recorder:Config.default.Config.recorder_capacity ()
  in
  Alcotest.(check bool) "capacity 8 = metrics alone" true (small = alone);
  Alcotest.(check bool) "default capacity = metrics alone" true (full = alone)

(* ------------------------------------------------------------------ *)
(* Pinned bits: seeded runs with metrics on from the start, each
   snapshot written as per-worker counters, sync counts, and per
   histogram its count, the [%h] bits of its sum and its nonzero
   buckets (index:count).  test/metrics_bits.txt holds the expected
   lines. *)

let snapshot_bits name (s : Metrics.snapshot) =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun r (c : Metrics.wcounters) ->
      Printf.bprintf b "%s worker%d %d %d %d %d %d %d %d %d\n" name r c.Metrics.preempts
        c.Metrics.signal_yields c.Metrics.klt_switches c.Metrics.pool_gets
        c.Metrics.pool_puts c.Metrics.steals c.Metrics.timer_fires c.Metrics.io_restarts)
    s.Metrics.s_workers;
  Printf.bprintf b "%s sync %d %d\n" name s.Metrics.s_sync_blocks s.Metrics.s_sync_wakeups;
  List.iter
    (fun (hname, h) ->
      Printf.bprintf b "%s %s %d %h" name hname (H.count h) (H.sum h);
      for i = 0 to H.n_buckets - 1 do
        if H.bucket_count h i > 0 then Printf.bprintf b " %d:%d" i (H.bucket_count h i)
      done;
      Buffer.add_char b '\n')
    [
      ("sig_to_switch", s.Metrics.s_sig_to_switch);
      ("sched_delay", s.Metrics.s_sched_delay);
      ("run_quantum", s.Metrics.s_run_quantum);
    ];
  Buffer.contents b

(* Signal-yield threads under the priority scheduler, with the chain
   timer forwarding signals: preemptions, yields, steals. *)
let signal_yield_workload () =
  let eng = Engine.create ~seed:11 () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 3) in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_process_chain;
      interval = 5e-4;
      metrics_enabled = true;
    }
  in
  let rt = Runtime.create ~config ~scheduler:(Sched_priority.make ()) kernel ~n_workers:3 in
  for i = 0 to 6 do
    ignore
      (Runtime.spawn rt ~kind:Types.Signal_yield ~priority:(i mod 2) ~home:0
         ~name:(Printf.sprintf "s%d" i)
         (fun () ->
           Ult.compute (1e-3 *. float_of_int (1 + (i mod 3)));
           Ult.yield ();
           Ult.compute 1.5e-3))
  done;
  Runtime.start rt;
  Engine.run ~until:10.0 eng;
  Runtime.metrics rt

(* Usync primitives between preemptive threads. *)
let usync_workload () =
  let eng = Engine.create ~seed:5 () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 2) in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval = 1e-3;
      metrics_enabled = true;
    }
  in
  let rt = Runtime.create ~config kernel ~n_workers:2 in
  let m = Usync.Mutex.create rt in
  let bar = Usync.Barrier.create rt 4 in
  let ch = Usync.Channel.create rt in
  let iv = Usync.Ivar.create rt in
  let workers =
    List.init 4 (fun i ->
        Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 2)
          ~name:(Printf.sprintf "u%d" i)
          (fun () ->
            Usync.Mutex.lock m;
            Ult.compute 1.2e-3;
            Usync.Mutex.unlock m;
            Usync.Barrier.wait bar;
            Usync.Channel.send ch i;
            ignore (Usync.Ivar.read iv)))
  in
  ignore
    (Runtime.spawn rt ~kind:Types.Signal_yield ~name:"collector" (fun () ->
         for _ = 1 to 4 do
           ignore (Usync.Channel.recv ch)
         done;
         Usync.Ivar.fill iv ();
         List.iter (Usync.join rt) workers));
  Runtime.start rt;
  Engine.run ~until:10.0 eng;
  Runtime.metrics rt

let pinned_bits () =
  let _, klt, _ = run_workload ~seed:7 () in
  snapshot_bits "klt-switch" klt
  ^ snapshot_bits "signal-yield" (signal_yield_workload ())
  ^ snapshot_bits "usync" (usync_workload ())

let test_pinned_bits () =
  let got = pinned_bits () in
  let ic = open_in_bin "metrics_bits.txt" in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if got <> want then begin
    print_string got;
    Alcotest.fail "Metrics bits differ from test/metrics_bits.txt (this run's printed above)"
  end

let suite =
  [
    Alcotest.test_case "bucket edges exact" `Quick test_bucket_boundaries;
    Alcotest.test_case "bucket extremes" `Quick test_bucket_extremes;
    Alcotest.test_case "hist add/percentile" `Quick test_hist_add_count_percentile;
    Alcotest.test_case "quantile edge cases" `Quick test_quantile_edges;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "quantile after merge" `Quick test_quantile_after_merge;
    Alcotest.test_case "counters monotone + nonzero" `Quick test_counters_monotonic_and_nonzero;
    Alcotest.test_case "snapshot deterministic" `Quick test_snapshot_deterministic;
    Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
    Alcotest.test_case "enable mid-run" `Quick test_enable_midway;
    Alcotest.test_case "usync block/wakeup counters" `Quick test_usync_counters;
    Alcotest.test_case "counters independent of rings" `Quick
      test_counters_independent_of_rings;
    Alcotest.test_case "pinned bits" `Quick test_pinned_bits;
  ]
