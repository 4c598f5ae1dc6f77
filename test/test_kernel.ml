open Desim
open Oskern

let sig_preempt = 34 (* SIGRTMIN-ish *)

let make ?(cores = 2) () =
  let eng = Engine.create () in
  let machine = Machine.with_cores Machine.skylake cores in
  let k = Kernel.create eng machine in
  (eng, k)

let run = Engine.run

let test_single_compute () =
  let eng, k = make ~cores:1 () in
  let finished_at = ref 0.0 in
  let klt =
    Kernel.spawn k ~name:"worker" (fun klt ->
        Kernel.compute k klt 0.01;
        finished_at := Engine.now eng)
  in
  run eng;
  (* 10 ms of work plus dispatch overhead, alone on a free core. *)
  if !finished_at < 0.01 || !finished_at > 0.0101 then
    Alcotest.failf "finished at %.6f, expected ~0.010" !finished_at;
  Alcotest.(check bool) "cpu_time ~ work" true (Kernel.cpu_time klt >= 0.01);
  Alcotest.(check string) "zombie" "zombie" (Kernel.state_name klt)

let test_parallel_on_two_cores () =
  let eng, k = make ~cores:2 () in
  let finished = ref [] in
  for i = 0 to 1 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun klt ->
           Kernel.compute k klt 0.01;
           finished := Engine.now eng :: !finished))
  done;
  run eng;
  List.iter
    (fun t ->
      if t > 0.0102 then Alcotest.failf "no parallelism: finished at %.6f" t)
    !finished

let test_timeslicing_two_on_one () =
  let eng, k = make ~cores:1 () in
  let finish = Array.make 2 0.0 in
  for i = 0 to 1 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun klt ->
           Kernel.compute k klt 0.05;
           finish.(i) <- Engine.now eng))
  done;
  run eng;
  (* 100 ms total work on one core: both finish near 0.1, and neither can
     finish before its own 50 ms of work is done. *)
  Array.iteri
    (fun i t ->
      if t < 0.05 then Alcotest.failf "w%d finished impossibly early: %f" i t;
      if t > 0.105 then Alcotest.failf "w%d finished too late: %f" i t)
    finish;
  (* Fairness: both within one slice of each other at the end. *)
  let d = Float.abs (finish.(0) -. finish.(1)) in
  if d > 0.02 then Alcotest.failf "unfair finish spread: %f" d

let test_nice_weights () =
  let eng, k = make ~cores:1 () in
  (* A nice-0 and a nice-5 spinner share a core for 1 s; CFS weights give
     the nice-0 thread 1.25^5 ~ 3x the CPU. *)
  let heavy = ref None and light = ref None in
  let spin klt = Kernel.compute k klt 10.0 in
  heavy := Some (Kernel.spawn k ~name:"nice0" spin);
  light := Some (Kernel.spawn k ~nice:5 ~name:"nice5" spin);
  Engine.run ~until:1.0 eng;
  let heavy_cpu = Kernel.cpu_time (Option.get !heavy) in
  let light_cpu = Kernel.cpu_time (Option.get !light) in
  let ratio = heavy_cpu /. light_cpu in
  if ratio < 2.0 || ratio > 4.5 then
    Alcotest.failf "nice ratio out of band: %.2f (%.4f vs %.4f)" ratio heavy_cpu light_cpu

let test_affinity_respected () =
  let eng, k = make ~cores:2 () in
  let cores_seen = Hashtbl.create 8 in
  for i = 0 to 3 do
    ignore
      (Kernel.spawn k
         ~affinity:(Cpuset.of_list 2 [ 1 ])
         ~name:(Printf.sprintf "pinned%d" i)
         (fun klt ->
           for _ = 1 to 20 do
             Kernel.compute k klt 0.001;
             match Kernel.running_core klt with
             | Some c -> Hashtbl.replace cores_seen c ()
             | None -> ()
           done))
  done;
  run eng;
  Alcotest.(check (list int)) "only core 1 used" [ 1 ]
    (List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) cores_seen []))

let test_sleep_duration () =
  let eng, k = make () in
  let woke = ref 0.0 in
  let klt =
    Kernel.spawn k ~name:"sleeper" (fun klt ->
        Kernel.sleep k klt 0.2;
        woke := Engine.now eng)
  in
  run eng;
  if !woke < 0.2 || !woke > 0.201 then Alcotest.failf "woke at %f" !woke;
  (* Sleep consumes no CPU. *)
  if Kernel.cpu_time klt > 0.001 then
    Alcotest.failf "sleeper burned cpu: %f" (Kernel.cpu_time klt)

let test_yield_rotates () =
  let eng, k = make ~cores:1 () in
  let order = ref [] in
  for i = 0 to 1 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "y%d" i) (fun klt ->
           for _ = 1 to 3 do
             Kernel.compute k klt 1e-4;
             order := i :: !order;
             Kernel.yield k klt
           done))
  done;
  run eng;
  (* With yields, the two KLTs alternate rather than running to completion. *)
  let seq = List.rev !order in
  Alcotest.(check (list int)) "alternation" [ 0; 1; 0; 1; 0; 1 ] seq

let test_join () =
  let eng, k = make () in
  let events = ref [] in
  let target =
    Kernel.spawn k ~name:"target" (fun klt ->
        Kernel.compute k klt 0.05;
        events := ("target-done", Engine.now eng) :: !events)
  in
  ignore
    (Kernel.spawn k ~name:"joiner" (fun klt ->
         Kernel.join k ~joiner:klt target;
         events := ("joined", Engine.now eng) :: !events));
  run eng;
  match List.rev !events with
  | [ ("target-done", t1); ("joined", t2) ] ->
      if t2 < t1 then Alcotest.fail "joined before target finished"
  | evs -> Alcotest.failf "unexpected events: %d" (List.length evs)

let test_join_zombie_is_immediate () =
  let eng, k = make () in
  let target = Kernel.spawn k ~name:"quick" (fun _ -> ()) in
  let joined = ref false in
  ignore
    (Kernel.spawn k ~name:"late-joiner" (fun klt ->
         Kernel.sleep k klt 0.1;
         Kernel.join k ~joiner:klt target;
         joined := true));
  run eng;
  Alcotest.(check bool) "joined" true !joined

let test_signal_handler_runs () =
  let eng, k = make () in
  let handled = ref [] in
  Kernel.sigaction k sig_preempt (fun _k klt ->
      handled := (Kernel.klt_id klt, Engine.now eng) :: !handled);
  let klt = Kernel.spawn k ~name:"victim" (fun klt -> Kernel.compute k klt 0.1) in
  ignore (Engine.after eng 0.02 (fun () -> Kernel.kill k klt sig_preempt));
  run eng;
  (match !handled with
  | [ (id, t) ] when id = Kernel.klt_id klt ->
      (* Delivered promptly, not at the end of the compute. *)
      if t > 0.03 then Alcotest.failf "late delivery: %f" t
  | _ -> Alcotest.fail "handler did not run exactly once");
  Alcotest.(check int) "delivered count" 1 (Kernel.signals_delivered k)

let test_signal_interrupts_compute_once () =
  let eng, k = make ~cores:1 () in
  let finished_at = ref 0.0 in
  Kernel.sigaction k sig_preempt (fun _ _ -> ());
  let klt =
    Kernel.spawn k ~name:"v" (fun klt ->
        Kernel.compute k klt 0.1;
        finished_at := Engine.now eng)
  in
  ignore (Engine.after eng 0.05 (fun () -> Kernel.kill k klt sig_preempt));
  run eng;
  (* Work completes in full despite the interruption; handler cost added. *)
  if !finished_at < 0.1 then Alcotest.fail "lost compute time";
  if !finished_at > 0.1005 then Alcotest.failf "too much overhead: %f" !finished_at

let test_masked_signal_deferred () =
  let eng, k = make () in
  let handled_at = ref 0.0 in
  Kernel.sigaction k sig_preempt (fun _ _ -> handled_at := Engine.now eng);
  ignore
    (Kernel.spawn k ~name:"m" (fun klt ->
         Kernel.sigblock k klt sig_preempt;
         Kernel.compute k klt 0.05;
         (* Signal sent at t=0.01 while blocked must not run yet. *)
         Alcotest.(check (float 0.0)) "not yet handled" 0.0 !handled_at;
         Kernel.sigunblock k klt sig_preempt;
         (* Delivered at the next interruption point. *)
         Kernel.compute k klt 0.001));
  let klt = List.hd (Kernel.live_klts k) in
  ignore (Engine.after eng 0.01 (fun () -> Kernel.kill k klt sig_preempt));
  run eng;
  if !handled_at < 0.05 then Alcotest.failf "handled while masked: %f" !handled_at

let test_signal_wakes_pause () =
  let eng, k = make () in
  let resumed = ref 0.0 in
  Kernel.sigaction k sig_preempt (fun _ _ -> ());
  let klt =
    Kernel.spawn k ~name:"pauser" (fun klt ->
        Kernel.pause k klt;
        resumed := Engine.now eng)
  in
  ignore (Engine.after eng 0.03 (fun () -> Kernel.kill k klt sig_preempt));
  run eng;
  if !resumed < 0.03 || !resumed > 0.031 then Alcotest.failf "resumed at %f" !resumed

let test_pthread_kill_charges_sender () =
  let eng, k = make () in
  Kernel.sigaction k sig_preempt (fun _ _ -> ());
  let target = Kernel.spawn k ~name:"t" (fun klt -> Kernel.sleep k klt 0.01) in
  let sender =
    Kernel.spawn k ~name:"s" (fun klt -> Kernel.pthread_kill k ~sender:klt target sig_preempt)
  in
  run eng;
  let c = (Kernel.costs k).Machine.pthread_kill in
  if Kernel.cpu_time sender < c then Alcotest.fail "sender not charged"

let test_timer_fires_periodically () =
  let eng, k = make () in
  let count = ref 0 in
  Kernel.sigaction k sig_preempt (fun _ _ -> incr count);
  let klt = Kernel.spawn k ~name:"w" (fun klt -> Kernel.compute k klt 0.0105) in
  let tm =
    Kernel.Timer.create k ~interval:0.001 ~signo:sig_preempt
      ~target:(fun () -> if Kernel.state_name klt <> "zombie" then Some klt else None)
      ()
  in
  Engine.run ~until:0.02 eng;
  Kernel.Timer.cancel tm;
  (* ~10 fires while the worker lived (work takes slightly over 10.5ms). *)
  if !count < 8 || !count > 12 then Alcotest.failf "fired %d times" !count

let test_timer_first_offset () =
  let eng, k = make () in
  let first_at = ref 0.0 in
  Kernel.sigaction k sig_preempt (fun _ _ -> if !first_at = 0.0 then first_at := Engine.now eng);
  let klt = Kernel.spawn k ~name:"w" (fun klt -> Kernel.compute k klt 0.05) in
  let tm =
    Kernel.Timer.create k ~first:0.0123 ~interval:0.01 ~signo:sig_preempt
      ~target:(fun () -> Some klt)
      ()
  in
  Engine.run ~until:0.04 eng;
  Kernel.Timer.cancel tm;
  if Float.abs (!first_at -. 0.0123) > 5e-4 then Alcotest.failf "first fire at %f" !first_at

let test_futex_wait_wake () =
  let eng, k = make () in
  let fut = Kernel.Futex.create k 0 in
  let woke_at = ref 0.0 in
  ignore
    (Kernel.spawn k ~name:"waiter" (fun klt ->
         (match Kernel.Futex.wait k klt fut ~expected:0 with
         | `Ok -> ()
         | `Again -> Alcotest.fail "should have blocked");
         woke_at := Engine.now eng));
  ignore
    (Kernel.spawn k ~name:"waker" (fun klt ->
         Kernel.sleep k klt 0.05;
         Kernel.Futex.set fut 1;
         ignore (Kernel.Futex.wake k ~waker:klt fut 1)));
  run eng;
  if !woke_at < 0.05 || !woke_at > 0.0501 then Alcotest.failf "woke at %f" !woke_at

let test_futex_value_mismatch () =
  let eng, k = make () in
  let fut = Kernel.Futex.create k 7 in
  let result = ref `Ok in
  ignore
    (Kernel.spawn k ~name:"w" (fun klt -> result := Kernel.Futex.wait k klt fut ~expected:0));
  run eng;
  Alcotest.(check bool) "EAGAIN" true (!result = `Again)

let test_futex_wake_count () =
  let eng, k = make ~cores:4 () in
  let fut = Kernel.Futex.create k 0 in
  let woken = ref 0 in
  for i = 0 to 2 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun klt ->
           ignore (Kernel.Futex.wait k klt fut ~expected:0);
           incr woken))
  done;
  ignore
    (Kernel.spawn k ~name:"waker" (fun klt ->
         Kernel.sleep k klt 0.01;
         let n = Kernel.Futex.wake k ~waker:klt fut 2 in
         Alcotest.(check int) "woke 2" 2 n;
         Kernel.sleep k klt 0.01;
         Alcotest.(check int) "woken so far" 2 !woken;
         Alcotest.(check int) "the third was waiting" 1 (Kernel.Futex.wake k ~waker:klt fut 10)));
  run eng;
  Alcotest.(check int) "all woken" 3 !woken

let test_signal_lock_contention () =
  (* The Fig. 4 mechanism: when N workers handle a signal at the same
     instant, the serialized kernel lock makes the average handler
     completion latency grow roughly linearly in N. *)
  let latency_for n =
    let eng = Engine.create () in
    let machine = Machine.with_cores Machine.skylake n in
    let k = Kernel.create eng machine in
    let stats = Stats.create () in
    let sent = ref 0.0 in
    Kernel.sigaction k sig_preempt (fun _ _ -> Stats.add stats (Engine.now eng -. !sent));
    let klts =
      List.init n (fun i ->
          Kernel.spawn k
            ~affinity:(Cpuset.of_list n [ i ])
            ~name:(Printf.sprintf "w%d" i)
            (fun klt -> Kernel.compute k klt 0.1))
    in
    ignore
      (Engine.after eng 0.01 (fun () ->
           sent := Engine.now eng;
           List.iter (fun klt -> Kernel.kill k klt sig_preempt) klts));
    Engine.run ~until:0.05 eng;
    Stats.mean stats
  in
  let l1 = latency_for 1 and l16 = latency_for 16 in
  if l16 < 4.0 *. l1 then
    Alcotest.failf "no contention effect: n=1 %.3g vs n=16 %.3g" l1 l16

let test_compute_stoppable () =
  let eng, k = make () in
  let stop = ref false in
  let leftover = ref 0.0 in
  Kernel.sigaction k sig_preempt (fun _ _ -> stop := true);
  let klt =
    Kernel.spawn k ~name:"s" (fun klt ->
        leftover := Kernel.compute_stoppable k klt 0.1 ~should_stop:(fun () -> !stop))
  in
  ignore (Engine.after eng 0.03 (fun () -> Kernel.kill k klt sig_preempt));
  run eng;
  (* Stopped ~30 ms in: ~70 ms left. *)
  if !leftover < 0.06 || !leftover > 0.08 then Alcotest.failf "leftover %f" !leftover

let test_busy_wait () =
  let eng, k = make () in
  let flag = ref false in
  let done_at = ref 0.0 in
  let spinner =
    Kernel.spawn k ~name:"spin" (fun klt ->
        Kernel.busy_wait k klt (fun () -> !flag);
        done_at := Engine.now eng)
  in
  ignore (Engine.after eng 0.02 (fun () -> flag := true));
  run eng;
  if !done_at < 0.02 || !done_at > 0.0205 then Alcotest.failf "done at %f" !done_at;
  (* Busy waiting burns CPU, unlike sleep. *)
  if Kernel.cpu_time spinner < 0.015 then Alcotest.fail "spinner did not burn cpu"

let test_utilization_accounting () =
  let eng, k = make ~cores:2 () in
  ignore (Kernel.spawn k ~name:"w" (fun klt -> Kernel.compute k klt 0.1));
  Engine.run eng;
  (* One core busy for the whole run, the other idle. *)
  let u = Kernel.total_busy_time k /. (2.0 *. Engine.now eng) in
  if u < 0.45 || u > 0.55 then Alcotest.failf "utilization %f" u;
  Alcotest.(check (float 1e-3)) "busy ~ work" 0.1 (Kernel.total_busy_time k)

let test_set_affinity_migrates_queued () =
  let eng, k = make ~cores:2 () in
  (* Three spinners on core 0: one stays queued; repinning it to core 1
     must migrate it there. *)
  let pin0 = Cpuset.of_list 2 [ 0 ] in
  let klts =
    List.init 3 (fun i ->
        Kernel.spawn k ~affinity:pin0 ~name:(Printf.sprintf "w%d" i) (fun klt ->
            Kernel.compute k klt 0.5))
  in
  let target = List.nth klts 2 in
  ignore
    (Engine.after eng 0.05 (fun () ->
         Kernel.set_affinity k target (Cpuset.of_list 2 [ 1 ])));
  Engine.run ~until:0.2 eng;
  (* It must have run on core 1 by now (it was starving on core 0). *)
  if Kernel.cpu_time target < 0.05 then
    Alcotest.failf "pinned-away KLT starved: %f" (Kernel.cpu_time target)

let test_load_balancing_spreads () =
  let eng, k = make ~cores:2 () in
  let klts =
    List.init 4 (fun i ->
        Kernel.spawn k ~name:(Printf.sprintf "w%d" i) (fun klt -> Kernel.compute k klt 0.2))
  in
  Engine.run ~until:0.35 eng;
  (* 0.8s of work on 2 cores: all should finish by ~0.4s and each get a
     fair share of CPU by 0.35s. *)
  List.iteri
    (fun i klt ->
      let c = Kernel.cpu_time klt in
      if c < 0.1 then Alcotest.failf "w%d starved: %f" i c)
    klts

let suite =
  [
    Alcotest.test_case "single compute" `Quick test_single_compute;
    Alcotest.test_case "parallel on two cores" `Quick test_parallel_on_two_cores;
    Alcotest.test_case "timeslicing two on one" `Quick test_timeslicing_two_on_one;
    Alcotest.test_case "nice weights bias CPU share" `Quick test_nice_weights;
    Alcotest.test_case "affinity respected" `Quick test_affinity_respected;
    Alcotest.test_case "sleep duration, no cpu" `Quick test_sleep_duration;
    Alcotest.test_case "yield rotates" `Quick test_yield_rotates;
    Alcotest.test_case "join waits for exit" `Quick test_join;
    Alcotest.test_case "join on zombie immediate" `Quick test_join_zombie_is_immediate;
    Alcotest.test_case "signal handler runs" `Quick test_signal_handler_runs;
    Alcotest.test_case "signal interrupts compute" `Quick test_signal_interrupts_compute_once;
    Alcotest.test_case "masked signal deferred" `Quick test_masked_signal_deferred;
    Alcotest.test_case "signal wakes pause" `Quick test_signal_wakes_pause;
    Alcotest.test_case "pthread_kill charges sender" `Quick test_pthread_kill_charges_sender;
    Alcotest.test_case "timer fires periodically" `Quick test_timer_fires_periodically;
    Alcotest.test_case "timer first offset" `Quick test_timer_first_offset;
    Alcotest.test_case "futex wait/wake" `Quick test_futex_wait_wake;
    Alcotest.test_case "futex value mismatch" `Quick test_futex_value_mismatch;
    Alcotest.test_case "futex wake count" `Quick test_futex_wake_count;
    Alcotest.test_case "signal lock contention grows with N" `Quick test_signal_lock_contention;
    Alcotest.test_case "compute_stoppable returns remainder" `Quick test_compute_stoppable;
    Alcotest.test_case "busy_wait burns cpu until flag" `Quick test_busy_wait;
    Alcotest.test_case "utilization accounting" `Quick test_utilization_accounting;
    Alcotest.test_case "set_affinity migrates queued KLT" `Quick test_set_affinity_migrates_queued;
    Alcotest.test_case "load balancing avoids starvation" `Quick test_load_balancing_spreads;
  ]
