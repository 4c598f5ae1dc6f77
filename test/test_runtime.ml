open Desim
open Oskern
open Preempt_core

let make ?(cores = 4) ?(workers = 4) ?(config = Config.default) () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake cores) in
  let rt = Runtime.create ~config kernel ~n_workers:workers in
  (eng, kernel, rt)

let preemptive_config strategy interval =
  { Config.default with Config.timer_strategy = strategy; interval }

let test_single_ult () =
  let eng, _k, rt = make ~cores:1 ~workers:1 () in
  let done_at = ref 0.0 in
  let u =
    Runtime.spawn rt ~name:"solo" (fun () ->
        Ult.compute 0.01;
        done_at := Ult.now ())
  in
  Runtime.start rt;
  Engine.run eng;
  if !done_at < 0.01 || !done_at > 0.0102 then Alcotest.failf "done at %f" !done_at;
  Alcotest.(check bool) "finished" true (Ult.finished u);
  Alcotest.(check int) "none unfinished" 0 (Runtime.unfinished rt);
  Alcotest.(check bool) "stopped" true (Runtime.is_stopping rt)

let test_parallel_ults () =
  let eng, _k, rt = make ~cores:4 ~workers:4 () in
  let finish = ref [] in
  for i = 0 to 3 do
    ignore
      (Runtime.spawn rt ~name:(Printf.sprintf "u%d" i) (fun () ->
           Ult.compute 0.02;
           finish := Ult.now () :: !finish))
  done;
  Runtime.start rt;
  Engine.run eng;
  List.iter (fun t -> if t > 0.021 then Alcotest.failf "not parallel: %f" t) !finish

let test_more_ults_than_workers () =
  let eng, _k, rt = make ~cores:2 ~workers:2 () in
  let last_finish = ref 0.0 in
  for i = 0 to 7 do
    ignore
      (Runtime.spawn rt ~name:(Printf.sprintf "u%d" i) (fun () ->
           Ult.compute 0.01;
           last_finish := Float.max !last_finish (Ult.now ())))
  done;
  Runtime.start rt;
  Engine.run eng;
  (* 80 ms of work across 2 workers: nonpreemptive run-to-completion is
     work-conserving. *)
  if !last_finish < 0.04 || !last_finish > 0.041 then
    Alcotest.failf "makespan %f" !last_finish

let test_work_stealing_spreads () =
  (* All threads start in worker 0's pool; stealing must spread them. *)
  let eng, _k, rt = make ~cores:4 ~workers:4 () in
  for i = 0 to 3 do
    ignore (Runtime.spawn rt ~home:0 ~name:(Printf.sprintf "u%d" i) (fun () -> Ult.compute 0.02))
  done;
  Runtime.start rt;
  Engine.run eng;
  let t = Engine.now eng in
  if t > 0.025 then Alcotest.failf "stealing failed: makespan %f" t

let test_yield_interleaves () =
  let eng, _k, rt = make ~cores:1 ~workers:1 () in
  let log = ref [] in
  for i = 0 to 1 do
    ignore
      (Runtime.spawn rt ~name:(Printf.sprintf "y%d" i) (fun () ->
           for _ = 1 to 3 do
             Ult.compute 1e-4;
             log := i :: !log;
             Ult.yield ()
           done))
  done;
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check (list int)) "alternating" [ 0; 1; 0; 1; 0; 1 ] (List.rev !log)

let test_spawn_from_ult () =
  let eng, _k, rt = make () in
  let child_done = ref false in
  ignore
    (Runtime.spawn rt ~name:"parent" (fun () ->
         Ult.compute 1e-3;
         ignore
           (Runtime.spawn rt ~name:"child" (fun () ->
                Ult.compute 1e-3;
                child_done := true))));
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check bool) "child ran" true !child_done

let test_nonpreemptive_hogs () =
  (* Without preemption a long-running thread starves queued ones: the
     short thread finishes only after the hog. *)
  let eng, _k, rt = make ~cores:1 ~workers:1 () in
  let short_done = ref 0.0 in
  ignore (Runtime.spawn rt ~home:0 ~name:"hog" (fun () -> Ult.compute 0.1));
  ignore
    (Runtime.spawn rt ~home:0 ~name:"short" (fun () ->
         Ult.compute 1e-3;
         short_done := Ult.now ()));
  Runtime.start rt;
  Engine.run eng;
  if !short_done < 0.1 then Alcotest.failf "short ran before hog finished: %f" !short_done

let test_signal_yield_timeslices () =
  (* Same scenario as above but preemptive: the short thread no longer
     waits for the hog. *)
  let config = preemptive_config Config.Per_worker_aligned 1e-3 in
  let eng, _k, rt = make ~cores:1 ~workers:1 ~config () in
  let short_done = ref 0.0 in
  ignore (Runtime.spawn rt ~kind:Types.Signal_yield ~home:0 ~name:"hog" (fun () -> Ult.compute 0.1));
  ignore
    (Runtime.spawn rt ~kind:Types.Signal_yield ~home:0 ~name:"short" (fun () ->
         Ult.compute 1e-3;
         short_done := Ult.now ()));
  Runtime.start rt;
  Engine.run eng;
  if !short_done > 0.01 then Alcotest.failf "preemption did not help: %f" !short_done;
  Alcotest.(check bool) "preemptions happened" true (Runtime.preempt_signals rt > 0)

let test_signal_yield_fair_finish () =
  let config = preemptive_config Config.Per_worker_aligned 1e-3 in
  let eng, _k, rt = make ~cores:1 ~workers:1 ~config () in
  let finish = Array.make 2 0.0 in
  for i = 0 to 1 do
    ignore
      (Runtime.spawn rt ~kind:Types.Signal_yield ~home:0 ~name:(Printf.sprintf "s%d" i)
         (fun () ->
           Ult.compute 0.05;
           finish.(i) <- Ult.now ()))
  done;
  Runtime.start rt;
  Engine.run eng;
  (* Round-robin at 1 ms: both finish within ~one interval of each other. *)
  let d = Float.abs (finish.(0) -. finish.(1)) in
  if d > 0.004 then Alcotest.failf "unfair spread %f (%f vs %f)" d finish.(0) finish.(1)

let test_klt_switching_basic () =
  let config = preemptive_config Config.Per_worker_aligned 1e-3 in
  let eng, _k, rt = make ~cores:1 ~workers:1 ~config () in
  let finish = Array.make 2 0.0 in
  for i = 0 to 1 do
    ignore
      (Runtime.spawn rt ~kind:Types.Klt_switching ~home:0 ~name:(Printf.sprintf "k%d" i)
         (fun () ->
           Ult.compute 0.05;
           finish.(i) <- Ult.now ()))
  done;
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check bool) "switches happened" true (Runtime.klt_switches rt > 0);
  Alcotest.(check bool) "extra KLTs created" true (Runtime.klts_created rt >= 1);
  (* Preemptive sharing: both finish well before a run-to-completion
     schedule would allow (sequential: first at 0.05), and the combined
     100 ms of work completes with small overhead. *)
  let first = Float.min finish.(0) finish.(1) in
  let last = Float.max finish.(0) finish.(1) in
  if first < 0.08 then Alcotest.failf "not time-shared: first finish %f" first;
  if last > 0.105 then Alcotest.failf "too much overhead: %f" last

let test_klt_switching_sigsuspend_mode () =
  let config =
    {
      (preemptive_config Config.Per_worker_aligned 1e-3) with
      Config.suspend_mode = Config.Sigsuspend;
    }
  in
  let eng, _k, rt = make ~cores:1 ~workers:1 ~config () in
  let finished = ref 0 in
  for i = 0 to 1 do
    ignore
      (Runtime.spawn rt ~kind:Types.Klt_switching ~home:0 ~name:(Printf.sprintf "k%d" i)
         (fun () ->
           Ult.compute 0.03;
           incr finished))
  done;
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check int) "both finish under sigsuspend mode" 2 !finished;
  Alcotest.(check bool) "switches happened" true (Runtime.klt_switches rt > 0)

let test_busy_wait_deadlock_nonpreemptive () =
  (* The paper's motivating failure: a nonpreemptive thread busy-waits on
     a flag that only a queued thread can set. *)
  let eng, _k, rt = make ~cores:1 ~workers:1 () in
  let flag = ref false in
  ignore
    (Runtime.spawn rt ~home:0 ~name:"spinner" (fun () ->
         while not !flag do
           Ult.compute 20e-6
         done));
  ignore (Runtime.spawn rt ~home:0 ~name:"setter" (fun () -> flag := true));
  Runtime.start rt;
  Engine.run ~until:0.05 eng;
  Alcotest.(check int) "deadlocked: both unfinished" 2 (Runtime.unfinished rt)

let test_busy_wait_rescued_by_preemption () =
  let config = preemptive_config Config.Per_worker_aligned 1e-3 in
  let eng, _k, rt = make ~cores:1 ~workers:1 ~config () in
  let flag = ref false in
  ignore
    (Runtime.spawn rt ~kind:Types.Signal_yield ~home:0 ~name:"spinner" (fun () ->
         while not !flag do
           Ult.compute 20e-6
         done));
  ignore (Runtime.spawn rt ~home:0 ~name:"setter" (fun () -> flag := true));
  Runtime.start rt;
  Engine.run ~until:0.5 eng;
  Alcotest.(check int) "no deadlock" 0 (Runtime.unfinished rt)

let test_mixed_thread_types () =
  let config = preemptive_config Config.Per_worker_aligned 1e-3 in
  let eng, _k, rt = make ~cores:2 ~workers:2 ~config () in
  let finished = ref 0 in
  let mk kind name = ignore (Runtime.spawn rt ~kind ~name (fun () -> Ult.compute 5e-3; incr finished)) in
  mk Types.Nonpreemptive "np";
  mk Types.Signal_yield "sy";
  mk Types.Klt_switching "ks";
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check int) "all kinds coexist" 3 !finished

let test_join () =
  let eng, _k, rt = make () in
  let order = ref [] in
  let a =
    Runtime.spawn rt ~name:"a" (fun () ->
        Ult.compute 5e-3;
        order := "a" :: !order)
  in
  ignore
    (Runtime.spawn rt ~name:"b" (fun () ->
         Usync.join rt a;
         order := "b" :: !order));
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check (list string)) "join ordering" [ "a"; "b" ] (List.rev !order)

let test_mutex_exclusion () =
  let eng, _k, rt = make ~cores:4 ~workers:4 () in
  let m = Usync.Mutex.create rt in
  let inside = ref 0 and peak = ref 0 in
  for i = 0 to 3 do
    ignore
      (Runtime.spawn rt ~name:(Printf.sprintf "m%d" i) (fun () ->
           Usync.Mutex.lock m;
           incr inside;
           if !inside > !peak then peak := !inside;
           Ult.compute 1e-3;
           decr inside;
           Usync.Mutex.unlock m))
  done;
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !peak

let test_barrier () =
  let eng, _k, rt = make ~cores:4 ~workers:4 () in
  let b = Usync.Barrier.create rt 4 in
  let after = ref [] in
  for i = 0 to 3 do
    ignore
      (Runtime.spawn rt ~name:(Printf.sprintf "b%d" i) (fun () ->
           Ult.compute (float_of_int (i + 1) *. 1e-3);
           Usync.Barrier.wait b;
           after := Ult.now () :: !after))
  done;
  Runtime.start rt;
  Engine.run eng;
  (* All leave the barrier at/after the slowest arrival (4 ms). *)
  List.iter (fun t -> if t < 0.004 then Alcotest.failf "left barrier early: %f" t) !after;
  Alcotest.(check int) "all passed" 4 (List.length !after)

let test_ivar_channel () =
  let eng, _k, rt = make ~cores:2 ~workers:2 () in
  let iv = Usync.Ivar.create rt in
  let ch = Usync.Channel.create rt in
  let got = ref (-1) and sum = ref 0 in
  ignore
    (Runtime.spawn rt ~name:"producer" (fun () ->
         Ult.compute 1e-3;
         Usync.Ivar.fill iv 42;
         for i = 1 to 3 do
           Usync.Channel.send ch i
         done));
  ignore
    (Runtime.spawn rt ~name:"consumer" (fun () ->
         got := Usync.Ivar.read iv;
         for _ = 1 to 3 do
           sum := !sum + Usync.Channel.recv ch
         done));
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check int) "ivar" 42 !got;
  Alcotest.(check int) "channel" 6 !sum

let test_packing_scheduler_runs_all () =
  (* 4 workers, 8 threads, then pack to 2 active workers: everything
     still completes, executed by the active workers. *)
  let config = preemptive_config Config.Per_worker_aligned 1e-3 in
  let eng, kernel, rt =
    let eng = Engine.create () in
    let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 4) in
    let rt =
      Runtime.create ~config ~scheduler:(Sched_packing.make ()) kernel ~n_workers:4
    in
    (eng, kernel, rt)
  in
  ignore kernel;
  let finished = ref 0 in
  for i = 0 to 7 do
    ignore
      (Runtime.spawn rt ~kind:Types.Klt_switching ~home:i ~name:(Printf.sprintf "p%d" i)
         (fun () ->
           Ult.compute 0.01;
           incr finished))
  done;
  Runtime.start rt;
  ignore (Engine.after eng 0.002 (fun () -> Runtime.set_active_workers rt 2));
  Engine.run ~until:1.0 eng;
  Alcotest.(check int) "all finished under packing" 8 !finished;
  Alcotest.(check int) "2 active" 2 (Runtime.n_active rt);
  (* 80 ms of work on mostly 2 cores: makespan near 40 ms, far below the
     1-core or broken-scheduler cases. *)
  let t = Engine.now eng in
  if t > 0.06 then Alcotest.failf "packing too slow: %f" t

let test_priority_scheduler_orders () =
  let eng, _k, rt =
    let eng = Engine.create () in
    let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 1) in
    let rt = Runtime.create ~scheduler:(Sched_priority.make ()) kernel ~n_workers:1 in
    (eng, kernel, rt)
  in
  let order = ref [] in
  (* Spawn low-priority (analysis) first; the high-priority (simulation)
     thread must still run first. *)
  ignore
    (Runtime.spawn rt ~priority:1 ~home:0 ~name:"analysis" (fun () ->
         Ult.compute 1e-3;
         order := "analysis" :: !order));
  ignore
    (Runtime.spawn rt ~priority:0 ~home:0 ~name:"sim" (fun () ->
         Ult.compute 1e-3;
         order := "sim" :: !order));
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check (list string)) "sim first" [ "sim"; "analysis" ] (List.rev !order)

let test_interrupt_stats_recorded () =
  let config = preemptive_config Config.Per_worker_aligned 1e-3 in
  let eng, _k, rt = make ~cores:2 ~workers:2 ~config () in
  for i = 0 to 1 do
    ignore
      (Runtime.spawn rt ~kind:Types.Signal_yield ~home:i ~name:(Printf.sprintf "w%d" i)
         (fun () -> Ult.compute 0.02))
  done;
  Runtime.start rt;
  Engine.run eng;
  let s = Runtime.interrupt_stats rt in
  Alcotest.(check bool) "samples recorded" true (Stats.count s > 10);
  (* Aligned timers on an idle-ish system: ~handler cost, microseconds. *)
  if Stats.mean s > 20e-6 then Alcotest.failf "interrupt time too high: %g" (Stats.mean s)

let test_preempt_latency_recorded () =
  let config = preemptive_config Config.Per_worker_aligned 1e-3 in
  let eng, _k, rt = make ~cores:1 ~workers:1 ~config () in
  for i = 0 to 1 do
    ignore
      (Runtime.spawn rt ~kind:Types.Signal_yield ~home:0 ~name:(Printf.sprintf "s%d" i)
         (fun () -> Ult.compute 0.02))
  done;
  Runtime.start rt;
  Engine.run eng;
  let s = Runtime.preempt_latency_stats rt in
  Alcotest.(check bool) "latency samples" true (Stats.count s > 5);
  let med = Stats.median s in
  (* Signal-yield preemption costs a few microseconds (paper Table 1:
     3.5 us on Skylake). *)
  if med < 0.5e-6 || med > 20e-6 then Alcotest.failf "median latency %g" med

let test_per_process_chain_reaches_workers () =
  let config = preemptive_config Config.Per_process_chain 1e-3 in
  let eng, _k, rt = make ~cores:4 ~workers:4 ~config () in
  let preempted = Array.make 4 false in
  for i = 0 to 3 do
    ignore
      (Runtime.spawn rt ~kind:Types.Signal_yield ~home:i ~name:(Printf.sprintf "c%d" i)
         (fun () ->
           Ult.compute 0.02;
           preempted.(i) <- Ult.preemptions (Ult.self ()) > 0))
  done;
  Runtime.start rt;
  Engine.run eng;
  Array.iteri
    (fun i p -> if not p then Alcotest.failf "worker %d never preempted via chain" i)
    preempted

let test_no_timer_means_no_preemption () =
  let eng, _k, rt = make ~cores:1 ~workers:1 () in
  let u = Runtime.spawn rt ~kind:Types.Signal_yield ~home:0 ~name:"s" (fun () -> Ult.compute 0.02) in
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check int) "no preemptions without timer" 0 (Ult.preemptions u)

let test_dynamic_interval () =
  let config = preemptive_config Config.Per_worker_aligned 10e-3 in
  let eng, _k, rt = make ~cores:1 ~workers:1 ~config () in
  let u =
    Runtime.spawn rt ~kind:Types.Signal_yield ~home:0 ~name:"spin" (fun () ->
        Ult.compute 0.05)
  in
  ignore (Runtime.spawn rt ~kind:Types.Signal_yield ~home:0 ~name:"peer" (fun () ->
       Ult.compute 0.05));
  Runtime.start rt;
  Alcotest.(check (float 0.0)) "initial interval" 10e-3 (Runtime.preemption_interval rt);
  (* Tighten the interval mid-run: preemption rate jumps by ~10x. *)
  ignore (Engine.after eng 0.02 (fun () -> Runtime.set_preemption_interval rt 1e-3));
  Engine.run eng;
  Alcotest.(check (float 0.0)) "new interval" 1e-3 (Runtime.preemption_interval rt);
  (* 100 ms of work: ~2 preemptions in the first 20 ms, then ~80 at 1 ms:
     far more than the ~10 a pure 10 ms timer would deliver. *)
  if Ult.preemptions u + Runtime.preempt_signals rt < 20 then
    Alcotest.failf "interval change had no effect: %d signals" (Runtime.preempt_signals rt)

let test_stop_is_idempotent () =
  let eng, _k, rt = make () in
  ignore (Runtime.spawn rt ~name:"x" (fun () -> Ult.compute 1e-3));
  Runtime.start rt;
  Engine.run eng;
  Runtime.stop rt;
  Runtime.stop rt;
  Alcotest.(check bool) "still stopped" true (Runtime.is_stopping rt)

(* ---------------- idle polls ---------------- *)

(* Workers whose threads finish at staggered times, then poll for work
   until the last one ends.  With nothing else due when a poll ends, the
   poll's completion event runs the scheduler step itself: about one
   engine event per idle poll, where resuming the worker process costs
   two. *)
let test_idle_poll_one_event () =
  let config = { Config.default with Config.timer_strategy = Config.No_timer } in
  let eng, _k, rt = make ~config () in
  let durations = [| 1.13e-3; 2.29e-3; 3.41e-3; 4.57e-3 |] in
  Array.iteri
    (fun i d -> ignore (Runtime.spawn rt ~home:i (fun () -> Ult.compute d)))
    durations;
  Runtime.start rt;
  Engine.run eng;
  let idle = ref 0.0 in
  for r = 0 to 3 do
    idle := !idle +. Runtime.worker_idle_time rt r
  done;
  let polls = !idle /. config.Config.idle_poll in
  let events = float_of_int (Engine.events_processed eng) in
  if polls < 600.0 then Alcotest.failf "only %.0f idle polls" polls;
  if events > 1.1 *. polls then
    Alcotest.failf "%.0f events for %.0f idle polls (%.2f per poll)" events polls
      (events /. polls)

(* Every worker idles from t = 0 in lockstep, so their polls end in
   ties and take the resume path; threads spawned later are stolen
   across workers.  One thread is also made ready at the very instant
   an idle poll ends, by an event queued after that poll's own: the
   poll must then leave its step to the process, which runs after the
   spawn.  The makespan and idle fraction must keep the exact bits they
   had before idle polls could run in event context. *)
let lockstep_run () =
  let config = { Config.default with Config.timer_strategy = Config.No_timer } in
  let poll = config.Config.idle_poll in
  let eng, _k, rt = make ~config () in
  let finish = ref 0.0 in
  let record () = finish := Float.max !finish (Ult.now ()) in
  ignore
    (Engine.after eng 0.5e-3 (fun () ->
         ignore
           (Runtime.spawn rt ~home:0 (fun () ->
                for step = 1 to 3 do
                  let kids =
                    List.init 5 (fun i ->
                        Runtime.spawn rt ~home:0 (fun () ->
                            Ult.compute (1e-4 *. float_of_int (i + step))))
                  in
                  List.iter (fun u -> Usync.join rt u) kids;
                  Ult.compute 7e-5
                done;
                record ()))));
  (* Keep the runtime alive until the spawn above. *)
  ignore (Runtime.spawn rt ~home:3 (fun () -> Ult.compute 0.6e-3));
  ignore
    (Runtime.spawn rt ~home:1 (fun () ->
         Ult.compute 0.2e-3;
         (* Worker 1's first idle poll starts now and ends at [f + poll]. *)
         let f = Ult.now () in
         ignore
           (Engine.after eng (poll /. 2.0) (fun () ->
                ignore
                  (Engine.at eng (f +. poll) (fun () ->
                       ignore
                         (Runtime.spawn rt ~home:1 (fun () ->
                              Ult.compute 0.1e-3;
                              record ()))))))));
  Runtime.start rt;
  Engine.run eng;
  let idle = ref 0.0 in
  for r = 0 to 3 do
    idle := !idle +. Runtime.worker_idle_time rt r
  done;
  (!finish, !idle /. (4.0 *. !finish))

let check_bits name (time, idle_frac) (time_bits, idle_bits) =
  Alcotest.(check int64) (name ^ " time bits") time_bits (Int64.bits_of_float time);
  Alcotest.(check int64) (name ^ " idle_frac bits") idle_bits (Int64.bits_of_float idle_frac)

let test_idle_poll_bits () =
  check_bits "lockstep" (lockstep_run ()) (4567938584873306791L, 4598953952600531652L);
  let insitu priority =
    let r =
      Moldyn.Insitu_run.run ~machine:(Machine.with_cores Machine.skylake 8) ~workers:8
        ~atoms:3e5 ~steps:4 ~analysis_interval:(Some 2)
        { Moldyn.Insitu_run.rk = Argobots; priority }
    in
    (r.Moldyn.Insitu_run.time, r.idle_frac)
  in
  check_bits "insitu Sched_ws" (insitu false) (4598656220018598458L, 4594731743189324175L);
  check_bits "insitu Sched_priority" (insitu true) (4598840508473418923L, 4595799209265161415L)

(* Exact work: one small seeded simulation under each main-queue
   scheduler, with a chained per-process timer preempting Signal_yield
   threads and workers idle-polling once the queues drain.  The engine's
   event count and the final clock's bits are pinned; a change that
   alters either (event heap, kernel accounting, scheduler) moves them
   and must state the new values. *)
let exact_work_run scheduler =
  let config = preemptive_config Config.Per_process_chain 1e-3 in
  let eng = Engine.create ~seed:7 () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 4) in
  let rt = Runtime.create ~config ~scheduler kernel ~n_workers:4 in
  let rng = Rng.split (Engine.rng eng) in
  for i = 0 to 11 do
    let d = Rng.range rng 0.2e-3 3e-3 in
    ignore
      (Runtime.spawn rt ~kind:Types.Signal_yield ~priority:(i mod 2) ~home:(i mod 4)
         ~name:(Printf.sprintf "u%d" i) (fun () -> Ult.compute d))
  done;
  Runtime.start rt;
  Engine.run eng;
  let idle = ref 0.0 in
  for r = 0 to 3 do
    idle := !idle +. Runtime.worker_idle_time rt r
  done;
  if !idle <= 0.0 then Alcotest.fail "no idle polls";
  if Runtime.preempt_signals rt = 0 then Alcotest.fail "no preemption";
  (Engine.events_processed eng, Int64.bits_of_float (Engine.now eng))

let test_exact_work () =
  List.iter
    (fun (name, scheduler, (events, clock_bits)) ->
      let events', clock_bits' = exact_work_run scheduler in
      Alcotest.(check int) (name ^ " events") events events';
      Alcotest.(check int64) (name ^ " final clock bits") clock_bits clock_bits')
    [
      ("ws", Sched_ws.make (), (430, 4575765307799480828L));
      ("priority", Sched_priority.make (), (1188, 4575765307799480828L));
    ]

(* The uncontrolled fast paths — an idle poll's step in its completion
   event, and delays that run ahead — are invisible: a default
   controller, which installs no choice of its own but turns both off,
   gives the same final clock, the same per-worker idle time to the bit
   and the same preemption and KLT-switch counts.  [Sched_priority]
   draws nothing from the controller (work stealing would draw its
   victims there instead of from the RNG). *)
let fast_path_run ~controlled ~kind config =
  let eng = Engine.create ~seed:11 () in
  if controlled then Engine.set_controller eng (Some (Choice.create ()));
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 4) in
  let rt =
    Runtime.create ~config ~scheduler:(Sched_priority.make ()) kernel ~n_workers:4
  in
  let rng = Rng.split (Engine.rng eng) in
  for i = 0 to 11 do
    let d = Rng.range rng 0.2e-3 3e-3 in
    ignore
      (Runtime.spawn rt ~kind ~priority:(i mod 2) ~home:(i mod 4) (fun () ->
           Ult.compute (d /. 2.0);
           Ult.yield ();
           Ult.compute (d /. 2.0)))
  done;
  Runtime.start rt;
  Engine.run eng;
  ( Int64.bits_of_float (Engine.now eng),
    List.init 4 (fun r -> Int64.bits_of_float (Runtime.worker_idle_time rt r)),
    Runtime.preempt_signals rt,
    Runtime.klt_switches rt )

let test_fast_paths_invisible () =
  let klt_switching mode =
    {
      (preemptive_config Config.Per_worker_aligned 0.5e-3) with
      Config.suspend_mode = mode;
      use_local_klt_pool = true;
    }
  in
  List.iter
    (fun (name, kind, config) ->
      let clock, idle, signals, switches = fast_path_run ~controlled:false ~kind config in
      let clock', idle', signals', switches' = fast_path_run ~controlled:true ~kind config in
      Alcotest.(check int64) (name ^ " final clock bits") clock clock';
      Alcotest.(check (list int64)) (name ^ " idle time bits") idle idle';
      Alcotest.(check int) (name ^ " preempt signals") signals signals';
      Alcotest.(check int) (name ^ " KLT switches") switches switches';
      if kind <> Types.Nonpreemptive && signals = 0 then Alcotest.failf "%s: no preemption" name;
      if kind = Types.Klt_switching && switches = 0 then Alcotest.failf "%s: no KLT switch" name)
    [
      ("signal-yield chain", Types.Signal_yield, preemptive_config Config.Per_process_chain 0.5e-3);
      ("KLT-switching futex", Types.Klt_switching, klt_switching Config.Futex_suspend);
      ("KLT-switching sigsuspend", Types.Klt_switching, klt_switching Config.Sigsuspend);
      ( "nonpreemptive aligned",
        Types.Nonpreemptive,
        preemptive_config Config.Per_worker_aligned 0.5e-3 );
    ]

let suite =
  [
    Alcotest.test_case "single ULT" `Quick test_single_ult;
    Alcotest.test_case "parallel ULTs" `Quick test_parallel_ults;
    Alcotest.test_case "more ULTs than workers" `Quick test_more_ults_than_workers;
    Alcotest.test_case "work stealing spreads" `Quick test_work_stealing_spreads;
    Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
    Alcotest.test_case "spawn from ULT" `Quick test_spawn_from_ult;
    Alcotest.test_case "nonpreemptive hogs" `Quick test_nonpreemptive_hogs;
    Alcotest.test_case "signal-yield timeslices" `Quick test_signal_yield_timeslices;
    Alcotest.test_case "signal-yield fair finish" `Quick test_signal_yield_fair_finish;
    Alcotest.test_case "KLT-switching basic" `Quick test_klt_switching_basic;
    Alcotest.test_case "KLT-switching sigsuspend mode" `Quick test_klt_switching_sigsuspend_mode;
    Alcotest.test_case "busy-wait deadlock (nonpreemptive)" `Quick test_busy_wait_deadlock_nonpreemptive;
    Alcotest.test_case "busy-wait rescued by preemption" `Quick test_busy_wait_rescued_by_preemption;
    Alcotest.test_case "mixed thread types" `Quick test_mixed_thread_types;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "ULT mutex exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "ULT barrier" `Quick test_barrier;
    Alcotest.test_case "ivar + channel" `Quick test_ivar_channel;
    Alcotest.test_case "packing scheduler completes" `Quick test_packing_scheduler_runs_all;
    Alcotest.test_case "priority scheduler orders" `Quick test_priority_scheduler_orders;
    Alcotest.test_case "interrupt stats recorded" `Quick test_interrupt_stats_recorded;
    Alcotest.test_case "preempt latency recorded" `Quick test_preempt_latency_recorded;
    Alcotest.test_case "per-process chain reaches workers" `Quick test_per_process_chain_reaches_workers;
    Alcotest.test_case "no timer, no preemption" `Quick test_no_timer_means_no_preemption;
    Alcotest.test_case "dynamic preemption interval" `Quick test_dynamic_interval;
    Alcotest.test_case "stop idempotent" `Quick test_stop_is_idempotent;
    Alcotest.test_case "idle poll costs one event" `Quick test_idle_poll_one_event;
    Alcotest.test_case "idle poll keeps exact bits" `Quick test_idle_poll_bits;
    Alcotest.test_case "exact work under ws and priority" `Quick test_exact_work;
    Alcotest.test_case "fast paths invisible to a controller" `Quick test_fast_paths_invisible;
  ]
