(* Randomized stress tests: generate arbitrary workloads over the
   kernel and the M:N runtime and check global invariants — everything
   completes, CPU accounting is conserved, no thread is lost — across
   thread kinds, timer strategies and scheduler mixes. *)

open Desim
open Oskern
open Preempt_core

(* Build a runtime with pseudo-random configuration drawn from [rng]. *)
let random_config rng =
  let strategies =
    [|
      Config.No_timer;
      Config.Per_worker_creation;
      Config.Per_worker_aligned;
      Config.Per_process_one_to_all;
      Config.Per_process_chain;
    |]
  in
  let intervals = [| 0.5e-3; 1e-3; 2e-3 |] in
  {
    Config.default with
    Config.timer_strategy = strategies.(Rng.int rng (Array.length strategies));
    interval = intervals.(Rng.int rng (Array.length intervals));
    suspend_mode =
      (if Rng.int rng 2 = 0 then Config.Futex_suspend else Config.Sigsuspend);
    use_local_klt_pool = Rng.int rng 2 = 0;
  }

let kinds = [| Types.Nonpreemptive; Types.Signal_yield; Types.Klt_switching |]

let run_random_workload ?scheduler ?(probe = fun _ -> ()) seed =
  let rng = Rng.make seed in
  let workers = 1 + Rng.int rng 6 in
  let eng = Engine.create ~seed () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake workers) in
  let config = random_config rng in
  let rt = Runtime.create ~config ?scheduler kernel ~n_workers:workers in
  probe rt;
  let n_threads = 1 + Rng.int rng 24 in
  let completed = ref 0 in
  let total_work = ref 0.0 in
  for i = 0 to n_threads - 1 do
    let kind = kinds.(Rng.int rng 3) in
    let work = Rng.range rng 1e-4 8e-3 in
    let yields = Rng.int rng 3 in
    total_work := !total_work +. work;
    ignore
      (Runtime.spawn rt ~kind ~home:(Rng.int rng workers)
         ~name:(Printf.sprintf "s%d" i)
         (fun () ->
           let chunk = work /. float_of_int (yields + 1) in
           for _ = 0 to yields do
             Ult.compute chunk;
             if yields > 0 then Ult.yield ()
           done;
           incr completed))
  done;
  Runtime.start rt;
  Engine.run ~until:60.0 ~max_events:20_000_000 eng;
  (rt, kernel, eng, n_threads, !completed, !total_work)

let prop_all_threads_complete =
  QCheck.Test.make ~name:"random workloads: all threads complete" ~count:60
    QCheck.small_nat
    (fun seed ->
      let rt, _, _, n, completed, _ = run_random_workload (seed + 1) in
      completed = n && Runtime.unfinished rt = 0)

let prop_cpu_conservation =
  QCheck.Test.make ~name:"random workloads: CPU accounting conserved" ~count:40
    QCheck.small_nat
    (fun seed ->
      let _, kernel, eng, _, _, total_work = run_random_workload (seed + 1000) in
      let busy = Kernel.total_busy_time kernel in
      let cores = float_of_int (Kernel.machine kernel).Machine.cores in
      (* Busy time covers at least the requested work and never exceeds
         cores x elapsed. *)
      busy >= total_work *. 0.999 && busy <= (cores *. Engine.now eng) +. 1e-9)

let prop_all_klts_quiesce =
  QCheck.Test.make ~name:"random workloads: all KLTs exit" ~count:40
    QCheck.small_nat
    (fun seed ->
      let _, kernel, _, _, _, _ = run_random_workload (seed + 2000) in
      Kernel.live_klts kernel = [])

let prop_deterministic_replay =
  QCheck.Test.make ~name:"random workloads: bit-identical replay" ~count:15
    QCheck.small_nat
    (fun seed ->
      let _, k1, e1, _, _, _ = run_random_workload (seed + 3000) in
      let _, k2, e2, _, _, _ = run_random_workload (seed + 3000) in
      Engine.now e1 = Engine.now e2
      && Kernel.total_busy_time k1 = Kernel.total_busy_time k2
      && Kernel.signals_delivered k1 = Kernel.signals_delivered k2)

(* [rt.main_queued], which lets the schedulers skip an empty steal
   sweep, must equal the threads in all workers' [q_main] at every
   event, under both schedulers that keep it. *)
let prop_main_queued_exact =
  QCheck.Test.make ~name:"random workloads: queued count = q_main lengths" ~count:30
    QCheck.small_nat
    (fun seed ->
      let scheduler = if seed mod 2 = 0 then Sched_ws.make () else Sched_priority.make () in
      let bad = ref None and checks = ref 0 in
      let check (rt : Runtime.t) =
        incr checks;
        let sum = Array.fold_left (fun acc w -> acc + Dq.length w.Types.q_main) 0 rt.Types.workers in
        if sum <> rt.Types.main_queued && !bad = None then
          bad := Some (Engine.now (Kernel.engine rt.Types.kernel), sum, rt.Types.main_queued)
      in
      let probe rt =
        let eng = Kernel.engine rt.Types.kernel in
        let rec tick () =
          check rt;
          if not (Runtime.is_stopping rt) then ignore (Engine.after eng 37e-6 tick)
        in
        ignore (Engine.after eng 0.0 tick)
      in
      let rt, _, _, _, _, _ = run_random_workload ~scheduler ~probe (seed + 4000) in
      check rt;
      match !bad with
      | None -> !checks > 2
      | Some (t, sum, count) ->
          QCheck.Test.fail_reportf "at t=%g: q_main holds %d, main_queued = %d" t sum count)

(* Mixed sync stress: threads hammer a mutex, a barrier and a channel
   under KLT-switching preemption at a deliberately aggressive timer
   interval (0.3 ms, vs the 10 ms production default); deadlock-free
   completion with no lost wakeup is the invariant.  8 threads x 40
   iterations x 4 sync ops ≈ 1280 operations. *)
let test_sync_stress_under_preemption () =
  let iters = 40 in
  let eng = Engine.create ~seed:99 () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 4) in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval = 0.3e-3;
      metrics_enabled = true;
    }
  in
  let rt = Runtime.create ~config kernel ~n_workers:4 in
  let m = Usync.Mutex.create rt in
  let b = Usync.Barrier.create rt 8 in
  let ch = Usync.Channel.create rt in
  let counter = ref 0 in
  for i = 0 to 7 do
    ignore
      (Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 4)
         ~name:(Printf.sprintf "x%d" i)
         (fun () ->
           for _ = 1 to iters do
             Usync.Mutex.lock m;
             Ult.compute 3e-4;
             incr counter;
             Usync.Mutex.unlock m;
             Usync.Barrier.wait b;
             Usync.Channel.send ch i;
             ignore (Usync.Channel.recv ch)
           done))
  done;
  Runtime.start rt;
  Engine.run ~until:120.0 eng;
  Alcotest.(check int) "all iterations done" (8 * iters) !counter;
  Alcotest.(check int) "no stuck threads" 0 (Runtime.unfinished rt);
  let s = Runtime.metrics rt in
  Alcotest.(check bool) "preemption actually happened" true
    (s.Metrics.s_totals.Metrics.preempts > 0);
  Alcotest.(check bool) "sync layer exercised" true (s.Metrics.s_sync_blocks > 0);
  Alcotest.(check int) "every sync block woken" s.Metrics.s_sync_blocks
    s.Metrics.s_sync_wakeups

(* Packing stress: shrink and grow the active worker count while a
   preemptive workload runs. *)
let test_packing_flapping () =
  let eng = Engine.create ~seed:7 () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 6) in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval = 1e-3;
    }
  in
  let rt =
    Runtime.create ~config ~scheduler:(Sched_packing.make ()) kernel ~n_workers:6
  in
  let done_count = ref 0 in
  for i = 0 to 11 do
    ignore
      (Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 6)
         ~name:(Printf.sprintf "p%d" i)
         (fun () ->
           Ult.compute 0.02;
           incr done_count))
  done;
  Runtime.start rt;
  (* Flap the active core count while running. *)
  List.iteri
    (fun idx n ->
      ignore
        (Engine.after eng (float_of_int (idx + 1) *. 5e-3) (fun () ->
             Runtime.set_active_workers rt n)))
    [ 3; 1; 5; 2; 6; 4 ];
  Engine.run ~until:30.0 eng;
  Alcotest.(check int) "all done despite flapping" 12 !done_count

let suite =
  [
    QCheck_alcotest.to_alcotest prop_all_threads_complete;
    QCheck_alcotest.to_alcotest prop_cpu_conservation;
    QCheck_alcotest.to_alcotest prop_all_klts_quiesce;
    QCheck_alcotest.to_alcotest prop_deterministic_replay;
    QCheck_alcotest.to_alcotest prop_main_queued_exact;
    Alcotest.test_case "sync stress under preemption" `Quick test_sync_stress_under_preemption;
    Alcotest.test_case "packing flapping" `Quick test_packing_flapping;
  ]
