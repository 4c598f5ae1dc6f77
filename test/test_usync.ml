(* Focused edge-case tests for ULT-level synchronization beyond the
   basic coverage in test_runtime.ml. *)

open Desim
open Oskern
open Preempt_core

let make ?(cores = 2) ?(workers = 2) () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake cores) in
  let rt = Runtime.create kernel ~n_workers:workers in
  (eng, rt)

let test_mutex_fifo_handoff () =
  let eng, rt = make ~cores:4 ~workers:4 () in
  let m = Usync.Mutex.create rt in
  let order = ref [] in
  for i = 0 to 3 do
    ignore
      (Runtime.spawn rt ~home:0 ~name:(Printf.sprintf "m%d" i) (fun () ->
           Ult.compute (float_of_int i *. 1e-4);
           Usync.Mutex.lock m;
           order := i :: !order;
           Ult.compute 1e-3;
           Usync.Mutex.unlock m))
  done;
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO handoff" [ 0; 1; 2; 3 ] (List.rev !order)

let test_mutex_trylock_under_contention () =
  let eng, rt = make () in
  let m = Usync.Mutex.create rt in
  let attempts = ref [] in
  ignore
    (Runtime.spawn rt ~name:"holder" (fun () ->
         Usync.Mutex.lock m;
         Ult.compute 5e-3;
         Usync.Mutex.unlock m));
  ignore
    (Runtime.spawn rt ~name:"prober" (fun () ->
         Ult.compute 1e-3;
         attempts := Usync.Mutex.try_lock m :: !attempts;
         Ult.compute 6e-3;
         attempts := Usync.Mutex.try_lock m :: !attempts;
         if List.hd !attempts then Usync.Mutex.unlock m));
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check (list bool)) "fail then succeed" [ true; false ] !attempts

let test_barrier_reusable () =
  let eng, rt = make ~cores:3 ~workers:3 () in
  let b = Usync.Barrier.create rt 3 in
  let phase_counts = Array.make 3 0 in
  for i = 0 to 2 do
    ignore
      (Runtime.spawn rt ~home:i ~name:(Printf.sprintf "b%d" i) (fun () ->
           for phase = 0 to 2 do
             Ult.compute (1e-4 *. float_of_int (i + 1));
             Usync.Barrier.wait b;
             phase_counts.(phase) <- phase_counts.(phase) + 1
           done))
  done;
  Runtime.start rt;
  Engine.run eng;
  Array.iteri
    (fun p c -> if c <> 3 then Alcotest.failf "phase %d: %d crossings" p c)
    phase_counts

let test_barrier_one_party () =
  let eng, rt = make () in
  let b = Usync.Barrier.create rt 1 in
  let passed = ref 0 in
  ignore
    (Runtime.spawn rt ~name:"solo" (fun () ->
         Usync.Barrier.wait b;
         Usync.Barrier.wait b;
         passed := 2));
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check int) "no self-deadlock" 2 !passed

let test_barrier_invalid () =
  let _eng, rt = make () in
  Alcotest.check_raises "zero parties"
    (Invalid_argument "Usync.Barrier.create: parties <= 0") (fun () ->
      ignore (Usync.Barrier.create rt 0))

let test_channel_fifo_many () =
  let eng, rt = make () in
  let ch = Usync.Channel.create rt in
  let got = ref [] in
  ignore
    (Runtime.spawn rt ~name:"cons" (fun () ->
         for _ = 1 to 50 do
           got := Usync.Channel.recv ch :: !got
         done));
  ignore
    (Runtime.spawn rt ~name:"prod" (fun () ->
         for i = 1 to 50 do
           Ult.compute 1e-5;
           Usync.Channel.send ch i
         done));
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check (list int)) "in order" (List.init 50 (fun i -> i + 1)) (List.rev !got)

let test_channel_send_from_event_context () =
  let eng, rt = make () in
  let ch = Usync.Channel.create rt in
  let got = ref 0 in
  ignore (Runtime.spawn rt ~name:"cons" (fun () -> got := Usync.Channel.recv ch));
  ignore (Engine.after eng 0.01 (fun () -> Usync.Channel.send ch 99));
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check int) "delivered" 99 !got

let test_ivar_multiple_readers_cross_worker () =
  let eng, rt = make ~cores:4 ~workers:4 () in
  let iv = Usync.Ivar.create rt in
  let sum = ref 0 in
  for i = 0 to 3 do
    ignore
      (Runtime.spawn rt ~home:i ~name:(Printf.sprintf "r%d" i) (fun () ->
           sum := !sum + Usync.Ivar.read iv))
  done;
  ignore (Engine.after eng 5e-3 (fun () -> Usync.Ivar.fill iv 10));
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check int) "all read" 40 !sum;
  Alcotest.(check (option int)) "peek" (Some 10) (Usync.Ivar.peek iv)

let test_join_many_waiters () =
  let eng, rt = make ~cores:4 ~workers:4 () in
  let target = Runtime.spawn rt ~name:"t" (fun () -> Ult.compute 5e-3) in
  let joined = ref 0 in
  for i = 0 to 5 do
    ignore
      (Runtime.spawn rt ~name:(Printf.sprintf "j%d" i) (fun () ->
           Usync.join rt target;
           incr joined))
  done;
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check int) "all joined" 6 !joined

let test_mutex_with_preemption () =
  (* A preemptible thread holding a ULT mutex is preempted; the lock
     still ends up handed over correctly. *)
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
  let m = Usync.Mutex.create rt in
  let order = ref [] in
  ignore
    (Runtime.spawn rt ~kind:Types.Signal_yield ~home:0 ~name:"holder" (fun () ->
         Usync.Mutex.lock m;
         Ult.compute 5e-3;
         (* preempted at least 4 times while holding the lock *)
         Usync.Mutex.unlock m;
         order := "holder" :: !order));
  ignore
    (Runtime.spawn rt ~kind:Types.Signal_yield ~home:0 ~name:"waiter" (fun () ->
         Usync.Mutex.lock m;
         order := "waiter" :: !order;
         Usync.Mutex.unlock m));
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check (list string)) "handoff order" [ "holder"; "waiter" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Hardening: the same primitives under KLT-switching preemption, now
   explored with Check.run across a fixed budget of controller-driven
   schedules (with fault injection: delayed/coalesced timers, KLT-pool
   exhaustion, spurious futex wakeups, worker stalls) instead of one
   seeded run.  Per-schedule workloads are smaller, but the total
   operation count across the budget stays well above 1000. *)

let check_budget = 200

let checked_rt (env : Check.env) ?(cores = 2) ?(workers = 2)
    ?(interval = 0.3e-3) () =
  let kernel =
    Kernel.create env.Check.eng
      (Machine.with_cores Machine.skylake cores)
  in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval;
      metrics_enabled = true;
    }
  in
  Runtime.create ~config kernel ~n_workers:workers

let assert_ok name (r : Check.report) =
  match r.Check.result with
  | `Ok -> ()
  | `Violation cx -> Alcotest.failf "%s:\n%s" name (Check.describe cx)

let test_mutex_fairness_checked () =
  (* Six KLT-switching threads hammer one mutex; FIFO handoff bounds
     the starvation window: between two consecutive acquisitions by the
     same thread, at most 2N-1 others can slip in.  Must hold in every
     explored schedule. *)
  let n_threads = 6 and rounds = 4 in
  let prog env =
    let rt = checked_rt env () in
    let m = Usync.Mutex.create rt in
    let seq = ref [] in
    let us =
      List.init n_threads (fun i ->
          Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 2)
            ~name:(Printf.sprintf "f%d" i)
            (fun () ->
              Ult.compute (float_of_int i *. 1e-5);
              for _ = 1 to rounds do
                Usync.Mutex.lock m;
                seq := i :: !seq;
                Ult.compute 4e-4;
                (* long enough to be preempted while holding *)
                Usync.Mutex.unlock m;
                Ult.compute 1e-5
              done))
    in
    Runtime.start rt;
    Check.program ~runtime:rt ~ults:us
      ~oracle:(fun () ->
        Check.all_finished rt;
        let seq = List.rev !seq in
        Check.require
          (List.length seq = n_threads * rounds)
          "%d acquisitions, expected %d" (List.length seq)
          (n_threads * rounds);
        let per_thread = Array.make n_threads 0 in
        List.iter (fun i -> per_thread.(i) <- per_thread.(i) + 1) seq;
        Array.iteri
          (fun i c ->
            Check.require (c = rounds) "thread %d acquired %d times" i c)
          per_thread;
        let last = Array.make n_threads (-1) in
        List.iteri
          (fun pos i ->
            Check.require
              (last.(i) < 0 || pos - last.(i) <= (2 * n_threads) - 1)
              "thread %d starved for %d acquisitions" i (pos - last.(i));
            last.(i) <- pos)
          seq;
        Check.require
          (Runtime.preempt_signals rt > 0)
          "holders were never preempted";
        Check.no_lost_wakeups rt)
      ()
  in
  assert_ok "mutex fairness"
    (Check.run ~seed:7 ~faults:true ~budget:check_budget
       ~strategy:Check.Random_walk prog)

let test_channel_fifo_checked () =
  (* 60 messages per schedule through one channel, both ends preempted
     mid-stream: order preserved, nothing lost, in every schedule
     (12000 messages across the budget). *)
  let n_msgs = 60 in
  let prog env =
    let rt = checked_rt env () in
    let ch = Usync.Channel.create rt in
    let got = ref [] in
    let cons =
      Runtime.spawn rt ~kind:Types.Klt_switching ~home:0 ~name:"cons"
        (fun () ->
          for _ = 1 to n_msgs do
            got := Usync.Channel.recv ch :: !got;
            if List.length !got mod 20 = 0 then Ult.compute 3e-4
          done)
    in
    let prod =
      Runtime.spawn rt ~kind:Types.Klt_switching ~home:1 ~name:"prod"
        (fun () ->
          for i = 1 to n_msgs do
            Usync.Channel.send ch i;
            if i mod 15 = 0 then Ult.compute 4e-4
          done)
    in
    Runtime.start rt;
    Check.program ~runtime:rt ~ults:[ cons; prod ]
      ~oracle:(fun () ->
        Check.all_finished rt;
        Check.require
          (List.length !got = n_msgs)
          "%d of %d messages delivered" (List.length !got) n_msgs;
        Check.require
          (List.rev !got = List.init n_msgs (fun i -> i + 1))
          "messages reordered";
        Check.no_lost_wakeups rt)
      ()
  in
  assert_ok "channel FIFO"
    (Check.run ~seed:3 ~faults:true ~budget:check_budget
       ~strategy:Check.Random_walk prog)

let test_barrier_stress_checked () =
  (* Six KLT-switching threads cross a shared barrier with skewed
     per-phase work; every phase must see exactly six crossings and no
     thread may run ahead, in every schedule. *)
  let n_threads = 6 and phases = 5 in
  let prog env =
    let rt = checked_rt env ~cores:3 ~workers:3 () in
    let b = Usync.Barrier.create rt n_threads in
    let counts = Array.make phases 0 in
    let skew_violation = ref false in
    let us =
      List.init n_threads (fun i ->
          Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 3)
            ~name:(Printf.sprintf "b%d" i)
            (fun () ->
              for p = 0 to phases - 1 do
                Ult.compute (1e-5 *. float_of_int (((i + p) mod n_threads) + 1));
                (* Everyone still in phase p: no count for p+1 yet. *)
                if p + 1 < phases && counts.(p + 1) > 0 then
                  skew_violation := true;
                Usync.Barrier.wait b;
                counts.(p) <- counts.(p) + 1
              done))
    in
    Runtime.start rt;
    Check.program ~runtime:rt ~ults:us
      ~oracle:(fun () ->
        Check.all_finished rt;
        Array.iteri
          (fun p c ->
            Check.require (c = n_threads) "phase %d: %d crossings" p c)
          counts;
        Check.require (not !skew_violation) "phase skew observed";
        Check.no_lost_wakeups rt)
      ()
  in
  assert_ok "barrier stress"
    (Check.run ~seed:11 ~faults:true ~budget:check_budget
       ~strategy:Check.Random_walk prog)

let test_no_lost_wakeups_checked () =
  (* Mixed mutex + channel + barrier traffic: every block recorded by
     the sync layer must be matched by a wakeup once the run drains, in
     every schedule — a lost wakeup shows up as blocks > wakeups plus a
     stuck thread (which the deadlock watchdog reports first). *)
  let rounds = 8 in
  let prog env =
    let rt = checked_rt env () in
    let m = Usync.Mutex.create rt in
    let ch = Usync.Channel.create rt in
    let b = Usync.Barrier.create rt 4 in
    let us =
      List.init 4 (fun i ->
          Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 2)
            ~name:(Printf.sprintf "w%d" i)
            (fun () ->
              for r = 1 to rounds do
                Usync.Mutex.lock m;
                Ult.compute 5e-5;
                Usync.Mutex.unlock m;
                if i land 1 = 0 then Usync.Channel.send ch ((r * 4) + i)
                else ignore (Usync.Channel.recv ch);
                Usync.Barrier.wait b
              done))
    in
    Runtime.start rt;
    Check.program ~runtime:rt ~ults:us
      ~oracle:(fun () ->
        Check.all_finished rt;
        let s = Runtime.metrics rt in
        Check.require (s.Metrics.s_sync_blocks > 0) "sync layer not exercised";
        Check.no_lost_wakeups rt)
      ()
  in
  assert_ok "no lost wakeups"
    (Check.run ~seed:5 ~faults:true ~budget:check_budget
       ~strategy:Check.Random_walk prog)

let suite =
  [
    Alcotest.test_case "mutex FIFO handoff" `Quick test_mutex_fifo_handoff;
    Alcotest.test_case "try_lock under contention" `Quick test_mutex_trylock_under_contention;
    Alcotest.test_case "barrier reusable across phases" `Quick test_barrier_reusable;
    Alcotest.test_case "barrier of one" `Quick test_barrier_one_party;
    Alcotest.test_case "barrier invalid arg" `Quick test_barrier_invalid;
    Alcotest.test_case "channel FIFO x50" `Quick test_channel_fifo_many;
    Alcotest.test_case "channel send from event" `Quick test_channel_send_from_event_context;
    Alcotest.test_case "ivar cross-worker broadcast" `Quick test_ivar_multiple_readers_cross_worker;
    Alcotest.test_case "join many waiters" `Quick test_join_many_waiters;
    Alcotest.test_case "mutex survives preemption" `Quick test_mutex_with_preemption;
    Alcotest.test_case "mutex fairness, checked x200" `Quick test_mutex_fairness_checked;
    Alcotest.test_case "channel FIFO, checked x200" `Quick test_channel_fifo_checked;
    Alcotest.test_case "barrier stress, checked x200" `Quick test_barrier_stress_checked;
    Alcotest.test_case "no lost wakeups, checked x200" `Quick test_no_lost_wakeups_checked;
  ]
