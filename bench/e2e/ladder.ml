(* The per-layer metrics a traced run reports, bottom to top: each layer
   is measured from outside, by timing calls into its public functions
   or reading its public counters.  Every traced run measures the whole
   ladder the same way, whatever its workload, so a shift in an
   end-to-end metric can be looked up layer by layer.  README.md maps
   each metric to the end-to-end metrics it should move. *)

open Preempt_core

let ns_per ~ops t0 = float_of_int (Util.now_ns () - t0) /. float_of_int ops

let median_of k f = Stat.median (Array.init k (fun _ -> f ()))

let value = Report.of_value

(* ---- Fiber.Deque ---------------------------------------------------- *)

(* Owner push and pop on one domain, 64 deep, per push+pop pair. *)
let push_pop ~blocks =
  let d = Fiber.Deque.create () in
  let t0 = Util.now_ns () in
  for _ = 1 to blocks do
    for i = 1 to 64 do
      Fiber.Deque.push d i
    done;
    for _ = 1 to 64 do
      ignore (Fiber.Deque.pop d)
    done
  done;
  ns_per ~ops:(64 * blocks) t0

(* One owner domain pushing blocks of 64 and popping until empty, one
   thief domain stealing: per steal call, and the share of calls that
   got an element. *)
let steal ~seconds =
  let d = Fiber.Deque.create () in
  let stop = Atomic.make false in
  let thief =
    Domain.spawn (fun () ->
        let calls = ref 0 and hits = ref 0 in
        let t0 = Util.now_ns () in
        while not (Atomic.get stop) do
          (match Fiber.Deque.steal d with Some _ -> incr hits | None -> ());
          incr calls
        done;
        (!calls, !hits, Util.now_ns () - t0))
  in
  let deadline = Util.now_ns () + int_of_float (seconds *. 1e9) in
  while Util.now_ns () < deadline do
    for i = 1 to 64 do
      Fiber.Deque.push d i
    done;
    while Fiber.Deque.pop d <> None do
      ()
    done
  done;
  Atomic.set stop true;
  let calls, hits, ns = Domain.join thief in
  (float_of_int ns /. float_of_int (Stdlib.max 1 calls), Stat.ratio (float_of_int hits) (float_of_int calls))

(* ---- Fiber spawn / await, Scheduler --------------------------------- *)

(* The minor-word counter must read a known allocation exactly before
   [fiber.minor_words_per_task] can be trusted: a 1-domain pool whose
   main fiber allocates [n] three-field blocks (four words each). *)
let gc_check () =
  let n = 100_000 in
  let pool = Fiber.make (Fiber.Config.make ~domains:1 ()) in
  let counted =
    Fiber.run pool (fun () ->
        let w0 = Util.minor_words () in
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Array.make 3 0))
        done;
        Util.minor_words () -. w0)
  in
  Fiber.shutdown pool;
  let expect = float_of_int (4 * n) in
  let good = Float.abs (counted -. expect) <= 0.01 *. expect in
  Printf.printf "gc check: %.0f minor words counted for %.0f allocated on a 1-domain pool (%s)\n"
    counted expect
    (if good then "ok" else "MISMATCH");
  { Report.attempted = 1; failed = (if good then 0 else 1) }

let fiber_layers ~tiny =
  let n = Forkjoin.job_n ~tiny and jobs = if tiny then 5 else 10 in
  let per_job = Forkjoin.spawns n in
  let sp = Spans.create ~cap:((jobs * ((2 * per_job) + 1)) + 16) () in
  let traced = Forkjoin.jobs ~spans:sp ~max_jobs:jobs ~n ~warm_s:0.1 ~measure_s:60.0 () in
  let plain = Forkjoin.jobs ~max_jobs:jobs ~n ~warm_s:0.1 ~measure_s:60.0 () in
  let spawn = Spans.durations sp "Fiber.spawn" in
  let await = Spans.durations sp "Fiber.await" in
  let blocked = Spans.durations sp "Fiber.await(blocked)" in
  let tasks = float_of_int (jobs * per_job) in
  let sum f = float_of_int (List.fold_left (fun n st -> n + f st) 0 plain.Forkjoin.stats) in
  let steals = sum (fun st -> st.Fiber.st_local_steals + st.Fiber.st_overflow_in) in
  let recycled = sum (fun st -> st.Fiber.st_recycled) in
  let seq_ms = median_of 5 (fun () -> snd (Util.time_s (fun () -> Forkjoin.sfib n)) *. 1e3) in
  let wrong = traced.Forkjoin.wrong + plain.Forkjoin.wrong in
  ( [
      Report.of_samples "fiber.spawn_ns" "ns" ~p:0.5 ~what:"spawns" spawn;
      Report.of_samples "fiber.await_ns" "ns" ~p:0.5 ~what:"resolved awaits" await;
      value "fiber.await_blocked_share" "ratio" "awaits whose promise was unresolved at the call"
        (Stat.ratio (float_of_int (Array.length blocked))
           (float_of_int (Array.length blocked + Array.length await)));
      value "fiber.await_blocked_us" "us" "median blocked await"
        (if blocked = [||] then 0.0 else Stat.median blocked /. 1e3);
      value "fiber.minor_words_per_task" "words"
        (Printf.sprintf "Gc minor words over %.0f untraced spawn/await pairs" tasks)
        (plain.Forkjoin.words /. tasks);
      value "forkjoin.seq_ms" "ms" (Printf.sprintf "sequential fib(%d), median of 5" n) seq_ms;
      value "sched.steals_per_ktask" "count" "Fiber.stats steals per 1000 spawns"
        (1000.0 *. steals /. tasks);
      value "sched.batch_per_steal" "count" "tasks per steal raid"
        (Stat.ratio (steals +. sum (fun st -> st.Fiber.st_batch_stolen)) steals);
      value "sched.leapfrog_per_ktask" "count" "tasks run by leapfrogging joiners per 1000 spawns"
        (1000.0 *. sum (fun st -> st.Fiber.st_leapfrog) /. tasks);
      value "sched.recycle_hit" "ratio" "spawns served from the dead-fiber free-list"
        (Stat.ratio recycled (recycled +. sum (fun st -> st.Fiber.st_recycle_miss)));
    ],
    { Report.attempted = 2 * jobs; failed = wrong } )

(* ---- Ticker and safe points ----------------------------------------- *)

let check_ns ~ops =
  let pool = Fiber.make (Fiber.Config.make ~domains:1 ()) in
  let v =
    Fiber.run pool (fun () ->
        median_of 5 (fun () ->
            let t0 = Util.now_ns () in
            for _ = 1 to ops do
              Fiber.check ()
            done;
            ns_per ~ops t0))
  in
  Fiber.shutdown pool;
  v

(* Two fibers yielding to each other on one worker, per yield. *)
let yield_ns ~ops =
  let pool = Fiber.make (Fiber.Config.make ~domains:1 ()) in
  let v =
    Fiber.run pool (fun () ->
        median_of 5 (fun () ->
            let t0 = Util.now_ns () in
            let ps =
              List.init 2 (fun _ ->
                  Fiber.spawn (fun () ->
                      for _ = 1 to ops do
                        Fiber.yield ()
                      done))
            in
            List.iter Fiber.await ps;
            ns_per ~ops:(2 * ops) t0))
  in
  Fiber.shutdown pool;
  v

(* ---- Serve ---------------------------------------------------------- *)

let serve_layers ~tiny ~seed ~work =
  let module S = Serve_poisson in
  let dump = Filename.concat work (Printf.sprintf "ladder-%d.flt" (Unix.getpid ())) in
  let traced k duration =
    let rate = snd S.rates.(k) in
    let r =
      S.run_rate ~dump ~rate ~duration ~seed:(S.seed_for seed 100 k) ~recorder:true ()
    in
    let f = S.flight ~path:dump in
    Sys.remove dump;
    (r, f)
  in
  let d = if tiny then 0.1 else 1.0 in
  let r50, f50 = traced 0 d in
  let r70, f70 = traced 1 d in
  let plain =
    S.run_rate ~rate:(snd S.rates.(1))
      ~duration:(if tiny then 0.1 else 2.0)
      ~seed:(S.seed_for seed 101 1) ~recorder:false ()
  in
  S.print_split "r70" f70;
  let module O = Experiments.Observe in
  let module H = Metrics.Hist in
  let q (f : S.flight) pick p =
    match f.S.split with Some s -> S.hist_q (pick s) p | None -> 0.0
  in
  let complete, verified =
    match f70.S.split with Some s -> (s.O.spn_complete, s.O.spn_verified) | None -> (0, 0)
  in
  let rp = plain.S.report in
  ( [
      value "serve.queue_p50_us.r50" "us" "r50 queueing p50 from the flight record"
        (q f50 (fun s -> s.O.spn_queue) 50.0 *. 1e6);
      value "serve.queue_p99_ms.r70" "ms" "r70 queueing p99 from the flight record"
        (q f70 (fun s -> s.O.spn_queue) 99.0 *. 1e3);
      value "serve.service_p99_ms.r70" "ms" "r70 service p99 from the flight record"
        (q f70 (fun s -> s.O.spn_service) 99.0 *. 1e3);
      value "serve.overhead_us_per_req.r70" "us"
        "r70 preemption overhead per complete span, from the flight record"
        (match f70.S.split with
        | Some s -> Stat.ratio (H.sum s.O.spn_overhead) (float_of_int s.O.spn_complete) *. 1e6
        | None -> 0.0);
      value "serve.injector_late_p99_us.r70" "us" "r70 arrival -> enqueue p99"
        (if f70.S.late_s = [||] then 0.0 else Stat.quantile f70.S.late_s 0.99 *. 1e6);
      value "serve.spans_verified" "ratio" "verified over complete r70 spans"
        (Stat.ratio (float_of_int verified) (float_of_int complete));
      value "serve.preempts_per_s.r70" "1/s" "untraced r70 run"
        (float_of_int rp.Serve.r_preemptions /. rp.Serve.r_elapsed);
      value "serve.steals_per_req.r70" "count" "untraced r70 run"
        (Stat.ratio (float_of_int (S.steals plain)) (float_of_int rp.Serve.r_completed));
    ],
    List.fold_left Report.( ++ ) Report.no_outcome
      (List.map
         (fun r -> { Report.attempted = r.S.report.Serve.r_offered; failed = S.failed r })
         [ r50; r70; plain ]) )

(* ---- Simulator ------------------------------------------------------ *)

(* Engine event dispatch: self-rescheduling chains over a heap with a
   standing backlog, plus a schedule-then-cancel decoy per step. *)
let dispatch_ns ~per =
  let open Desim in
  let eng = Engine.create () in
  for i = 0 to 255 do
    ignore (Engine.after eng (1e6 +. float_of_int i) (fun () -> ()))
  done;
  for c = 0 to 7 do
    let count = ref 0 in
    let rec step () =
      incr count;
      ignore (Engine.cancel (Engine.after eng 1.0 (fun () -> ())));
      if !count < per then ignore (Engine.after eng 1e-6 step)
    in
    ignore (Engine.after eng (1e-6 *. float_of_int c) step)
  done;
  let t0 = Util.now_ns () in
  Engine.run ~until:1e3 eng;
  ns_per ~ops:(Engine.events_processed eng) t0

(* Simulated ULT spawn plus cooperative yields on a 4-worker runtime. *)
let spawn_yield_ns ~yields =
  let eng = Desim.Engine.create () in
  let kernel = Oskern.Kernel.create eng (Oskern.Machine.with_cores Oskern.Machine.skylake 4) in
  let rt = Runtime.create kernel ~n_workers:4 in
  let t0 = Util.now_ns () in
  for i = 0 to 63 do
    ignore
      (Runtime.spawn rt ~home:(i mod 4) (fun () ->
           for _ = 1 to yields do
             Ult.yield ()
           done))
  done;
  Runtime.start rt;
  Desim.Engine.run eng;
  ns_per ~ops:(64 * yields) t0

(* KLT-switching preemption round trips under per-worker aligned 1 ms
   timers, per preemption signal honoured. *)
let preempt_klt_ns ~ticks =
  let workers = 8 in
  let eng = Desim.Engine.create () in
  let kernel = Oskern.Kernel.create eng (Oskern.Machine.with_cores Oskern.Machine.skylake workers) in
  let interval = 1e-3 in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval;
      suspend_mode = Config.Futex_suspend;
      use_local_klt_pool = true;
    }
  in
  let rt = Runtime.create ~config kernel ~n_workers:workers in
  let horizon = interval *. float_of_int ticks in
  let t0 = Util.now_ns () in
  for i = 0 to (2 * workers) - 1 do
    ignore
      (Runtime.spawn rt ~kind:Types.Klt_switching ~footprint:0.0 ~home:(i mod workers) (fun () ->
           Ult.compute (horizon +. 1.0)))
  done;
  Runtime.start rt;
  Desim.Engine.run ~until:horizon eng;
  ns_per ~ops:(Stdlib.max 1 (Runtime.preempt_signals rt)) t0

(* Each figure's fast preset, timed alone.  The smoke scale stands in a
   single small Fig. 6 / Fig. 9 configuration for the full presets. *)
let figure_times ~tiny ~work ~reference =
  let dir = Filename.concat work (Printf.sprintf "ladder-sim-%d" (Unix.getpid ())) in
  let s = Sim_figs.one_set ~tiny ~dir ~reference () in
  let time f = snd (Util.time_s f) in
  let fig6, fig9 =
    if tiny then
      ( time (fun () ->
            ignore
              (Experiments.Fig6_overhead.run_once Oskern.Machine.skylake ~workers:4
                 ~threads_per_worker:2 ~per_thread:1e-3
                 ~variant:Experiments.Fig6_overhead.Klt_futex_local ~interval:(Some 1e-3))),
        time (fun () ->
            ignore
              (Moldyn.Insitu_run.run ~atoms:1e5 ~steps:2 ~analysis_interval:(Some 1)
                 { Moldyn.Insitu_run.rk = Moldyn.Insitu_run.Argobots; priority = true })) )
    else (List.assoc "Fig6_overhead.run" s.Sim_figs.fig_s, List.assoc "Fig9_insitu.run" s.Sim_figs.fig_s)
  in
  ( [
      value "sim.fig4_s" "s" "Fig4_interrupt.run ~fast:true" (List.assoc "Fig4_interrupt.run" s.Sim_figs.fig_s);
      value "sim.fig6_s" "s" "Fig6_overhead.run ~fast:true" fig6;
      value "sim.fig9_s" "s" "Fig9_insitu.run ~fast:true" fig9;
    ],
    { Report.attempted = List.length (Sim_figs.csvs ~tiny); failed = List.length s.Sim_figs.bad } )

(* ---- The whole ladder ----------------------------------------------- *)

let run ~tiny ~seed ~work ~reference =
  let section name f =
    let (ms, o), s = Util.time_s f in
    Printf.printf "ladder: %s (%.2f s)\n%!" name s;
    List.iter Report.print_metric ms;
    (ms, o)
  in
  let k = if tiny then 1 else 10 in
  (* Sections run in this order: OCaml evaluates list elements right
     to left, so they are bound one by one. *)
  let deque =
    section "Fiber.Deque" (fun () ->
          let pp = median_of 5 (fun () -> push_pop ~blocks:(2_000 * k)) in
          let steal_ns, hit = steal ~seconds:(if tiny then 0.05 else 0.3) in
          ( [
              value "deque.push_pop_ns" "ns" "owner push+pop pair, 64 deep, median of 5" pp;
              value "deque.steal_ns" "ns" "steal call against a live owner" steal_ns;
              value "deque.steal_hit" "ratio" "steal calls that returned an element" hit;
            ],
            Report.no_outcome ))
  in
  let gc = section "Gc counter" (fun () -> ([], gc_check ())) in
  let fiber = section "Fiber spawn/await and Scheduler" (fun () -> fiber_layers ~tiny) in
  let ticker =
    section "Ticker and safe points" (fun () ->
          let r = Preempt_spin.rep ~rep_s:(if tiny then 0.2 else 1.5) () in
          ( [
              value "ticker.preempt_ratio" "ratio"
                (Printf.sprintf "%d preemptions over %.2f s on 2 workers at 1 ms"
                   r.Preempt_spin.preemptions r.Preempt_spin.busy_s)
                (Preempt_spin.preempt_ratio r);
              value "fiber.check_ns" "ns" "Fiber.check with no ticker, median of 5"
                (check_ns ~ops:(1_000_000 * k));
              value "fiber.yield_ns" "ns" "two fibers yielding on one worker, median of 5"
                (yield_ns ~ops:(10_000 * k));
            ],
            {
              Report.attempted = Array.length r.Preempt_spin.lat_s;
              failed = Array.length r.Preempt_spin.lat_s - Preempt_spin.ran r;
            } ))
  in
  let serve = section "Serve" (fun () -> serve_layers ~tiny ~seed ~work) in
  let sim =
    section "Simulator" (fun () ->
          let figs, o = figure_times ~tiny ~work ~reference in
          ( figs
            @ [
                value "desim.dispatch_ns" "ns" "Engine.after/cancel chains, median of 3"
                  (median_of 3 (fun () -> dispatch_ns ~per:(2_500 * k)));
                value "core.spawn_yield_ns" "ns" "Runtime.spawn + Ult.yield, median of 3"
                  (median_of 3 (fun () -> spawn_yield_ns ~yields:(40 * k)));
                value "core.preempt_klt_ns" "ns" "KLT-switching preemption round trip, median of 3"
                  (median_of 3 (fun () -> preempt_klt_ns ~ticks:(25 * k)));
              ],
            o ))
  in
  let parts = [ deque; gc; fiber; ticker; serve; sim ] in
  (List.concat_map fst parts, List.fold_left Report.( ++ ) Report.no_outcome (List.map snd parts))
