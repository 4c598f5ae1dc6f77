(* Fiber-level synchronization on the real multicore runtime. *)

module Fsync = Fiber.Fsync

let with_pool ?(domains = 3) f =
  let pool = Fiber.make (Fiber.Config.make ~domains ()) in
  Fun.protect ~finally:(fun () -> Fiber.shutdown pool) (fun () -> f pool)

let test_mutex_counter () =
  (* Domain-level smoke; the schedule-exhaustive version of this
     pattern runs under Check.run below. *)
  with_pool (fun pool ->
      let m = Fsync.Mutex.create () in
      let counter = ref 0 in
      Fiber.run pool (fun () ->
          let ps =
            List.init 8 (fun _ ->
                Fiber.spawn (fun () ->
                    for _ = 1 to 100 do
                      Fsync.Mutex.with_lock m (fun () -> incr counter)
                    done))
          in
          List.iter Fiber.await ps);
      Alcotest.(check int) "no lost updates" 800 !counter)

let test_mutex_trylock () =
  with_pool ~domains:1 (fun pool ->
      Fiber.run pool (fun () ->
          let m = Fsync.Mutex.create () in
          Alcotest.(check bool) "free" true (Fsync.Mutex.try_lock m);
          Alcotest.(check bool) "held" false (Fsync.Mutex.try_lock m);
          Fsync.Mutex.unlock m;
          Alcotest.(check bool) "free again" true (Fsync.Mutex.try_lock m);
          Fsync.Mutex.unlock m))

let test_mutex_unlock_unlocked () =
  with_pool ~domains:1 (fun pool ->
      Fiber.run pool (fun () ->
          let m = Fsync.Mutex.create () in
          Alcotest.check_raises "invalid"
            (Invalid_argument "Fsync.Mutex.unlock: not locked") (fun () ->
              Fsync.Mutex.unlock m)))

let test_semaphore_bound () =
  with_pool (fun pool ->
      let sem = Fsync.Semaphore.create 2 in
      let active = Atomic.make 0 in
      let peak = Atomic.make 0 in
      Fiber.run pool (fun () ->
          let ps =
            List.init 10 (fun _ ->
                Fiber.spawn (fun () ->
                    Fsync.Semaphore.acquire sem;
                    let a = Atomic.fetch_and_add active 1 + 1 in
                    let rec bump () =
                      let p = Atomic.get peak in
                      if a > p && not (Atomic.compare_and_set peak p a) then bump ()
                    in
                    bump ();
                    Fiber.yield ();
                    ignore (Atomic.fetch_and_add active (-1));
                    Fsync.Semaphore.release sem))
          in
          List.iter Fiber.await ps);
      if Atomic.get peak > 2 then Alcotest.failf "peak %d > 2" (Atomic.get peak))

let test_channel_spmc () =
  with_pool (fun pool ->
      let ch = Fsync.Channel.create () in
      let total = Atomic.make 0 in
      Fiber.run pool (fun () ->
          let consumers =
            List.init 4 (fun _ ->
                Fiber.spawn (fun () ->
                    for _ = 1 to 25 do
                      ignore (Atomic.fetch_and_add total (Fsync.Channel.recv ch))
                    done))
          in
          for i = 1 to 100 do
            Fsync.Channel.send ch i
          done;
          List.iter Fiber.await consumers);
      Alcotest.(check int) "all received once" 5050 (Atomic.get total);
      Alcotest.(check int) "drained" 0 (Fsync.Channel.length ch))

let test_channel_try_recv () =
  with_pool ~domains:1 (fun pool ->
      Fiber.run pool (fun () ->
          let ch = Fsync.Channel.create () in
          Alcotest.(check (option int)) "empty" None (Fsync.Channel.try_recv ch);
          Fsync.Channel.send ch 5;
          Alcotest.(check (option int)) "item" (Some 5) (Fsync.Channel.try_recv ch)))

let test_barrier_phases () =
  with_pool (fun pool ->
      let n = 4 in
      let b = Fsync.Barrier.create n in
      let phase = Atomic.make 0 in
      let errors = Atomic.make 0 in
      Fiber.run pool (fun () ->
          let ps =
            List.init n (fun _ ->
                Fiber.spawn (fun () ->
                    for expected = 0 to 4 do
                      (* Everyone must observe the same phase here. *)
                      if Atomic.get phase <> expected then Atomic.incr errors;
                      Fsync.Barrier.wait b;
                      (* Exactly one CAS succeeds between the barriers. *)
                      ignore (Atomic.compare_and_set phase expected (expected + 1));
                      Fsync.Barrier.wait b
                    done))
          in
          List.iter Fiber.await ps);
      Alcotest.(check int) "no phase tearing" 0 (Atomic.get errors))

let test_producer_consumer_pipeline () =
  with_pool (fun pool ->
      let stage1 = Fsync.Channel.create () in
      let stage2 = Fsync.Channel.create () in
      let result = Fiber.run pool (fun () ->
          let squarer =
            Fiber.spawn (fun () ->
                for _ = 1 to 50 do
                  Fsync.Channel.send stage2 (Fsync.Channel.recv stage1 * 2)
                done)
          in
          let sum = Fiber.spawn (fun () ->
              let acc = ref 0 in
              for _ = 1 to 50 do
                acc := !acc + Fsync.Channel.recv stage2
              done;
              !acc)
          in
          for i = 1 to 50 do
            Fsync.Channel.send stage1 i
          done;
          Fiber.await squarer;
          Fiber.await sum)
      in
      Alcotest.(check int) "pipeline sum" (2 * 50 * 51 / 2) result)

(* ------------------------------------------------------------------ *)
(* FIFO waiter order.

   All wake closures — Fsync queues, Barrier arrivals, promise waiters —
   must run in FIFO registration order.  On a 1-domain pool the whole
   schedule is deterministic, and wake order is observable through the
   owner deque: each wake pushes a continuation at the owner (LIFO) end,
   so the *execution* order of the woken fibers is the exact reverse of
   the wake order.  Each test below derives the expected sequence from
   FIFO wakes; a LIFO regression flips it. *)

let test_channel_reader_fifo () =
  with_pool ~domains:1 (fun pool ->
      let got = Array.make 4 0 in
      Fiber.run pool (fun () ->
          let ch = Fsync.Channel.create () in
          (* Spawn order c1,c2,c3; the LIFO deque runs them c3,c2,c1, so
             the readers queue holds [c3; c2; c1].  Sends wake FIFO
             (c3 first); the woken continuations stack back up LIFO, so
             c1 runs first and takes item 1.  Net effect of FIFO wakes +
             LIFO re-queue: reader ci receives value i. *)
          let cs =
            List.init 3 (fun i ->
                Fiber.spawn (fun () -> got.(i + 1) <- Fsync.Channel.recv ch))
          in
          Fiber.yield ();
          (* All three readers are now registered. *)
          for v = 1 to 3 do
            Fsync.Channel.send ch v
          done;
          List.iter Fiber.await cs);
      Alcotest.(check (list int)) "FIFO delivery" [ 1; 2; 3 ]
        [ got.(1); got.(2); got.(3) ])

let test_promise_waiter_fifo () =
  with_pool ~domains:1 (fun pool ->
      let order = ref [] in
      Fiber.run pool (fun () ->
          let stop = Atomic.make false in
          let gate =
            Fiber.spawn (fun () ->
                while not (Atomic.get stop) do
                  Fiber.yield ()
                done;
                99)
          in
          (* a3 runs (and registers on [gate]) first, then a2, then a1:
             FIFO wakes fire a3,a2,a1, which re-queue LIFO, so the
             recorded resume order must be a1,a2,a3 = [1;2;3]. *)
          let waiters =
            List.init 3 (fun i ->
                Fiber.spawn (fun () ->
                    let v = Fiber.await gate in
                    order := (i + 1) :: !order;
                    v))
          in
          Atomic.set stop true;
          List.iter (fun p -> ignore (Fiber.await p)) waiters;
          Alcotest.(check int) "gate value" 99 (Fiber.await gate));
      Alcotest.(check (list int)) "promise wakes FIFO" [ 1; 2; 3 ]
        (List.rev !order))

let test_barrier_release_fifo () =
  with_pool ~domains:1 (fun pool ->
      let order = ref [] in
      Fiber.run pool (fun () ->
          let b = Fsync.Barrier.create 4 in
          (* Arrival order b3,b2,b1 (LIFO deque), main trips the
             barrier; FIFO release wakes b3 first, LIFO re-queue runs
             b1 first: recorded order [1;2;3]. *)
          let bs =
            List.init 3 (fun i ->
                Fiber.spawn (fun () ->
                    Fsync.Barrier.wait b;
                    order := (i + 1) :: !order))
          in
          Fiber.yield ();
          Fsync.Barrier.wait b;
          List.iter Fiber.await bs);
      Alcotest.(check (list int)) "barrier releases FIFO" [ 1; 2; 3 ]
        (List.rev !order))

(* ------------------------------------------------------------------ *)
(* The same synchronization patterns, ported onto the simulated
   preemptive runtime and explored under Check.run: instead of trusting
   one real-domain interleaving per CI run, each pattern is checked
   across a fixed budget of controller-driven schedules with fault
   injection, and any violation comes back as a replayable trail. *)

open Oskern
open Preempt_core

let check_budget = 200

let checked_rt (env : Check.env) =
  let kernel =
    Kernel.create ~trace:env.Check.trace env.Check.eng
      (Machine.with_cores Machine.skylake 2)
  in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval = 0.3e-3;
      metrics_enabled = true;
    }
  in
  Runtime.create ~config kernel ~n_workers:2

let assert_ok name (r : Check.report) =
  match r.Check.result with
  | `Ok -> ()
  | `Violation cx -> Alcotest.failf "%s:\n%s" name (Check.describe cx)

let test_mutex_counter_checked () =
  let n_threads = 4 and rounds = 25 in
  let prog env =
    let rt = checked_rt env in
    let m = Usync.Mutex.create rt in
    let counter = ref 0 in
    let us =
      List.init n_threads (fun i ->
          Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 2)
            ~name:(Printf.sprintf "c%d" i)
            (fun () ->
              for _ = 1 to rounds do
                Usync.Mutex.lock m;
                let v = !counter in
                Ult.compute 2e-5;
                (* preemption window inside the critical section *)
                counter := v + 1;
                Usync.Mutex.unlock m
              done))
    in
    Runtime.start rt;
    Check.program ~runtime:rt ~ults:us ~cores:2
      ~oracle:(fun () ->
        Check.all_finished rt;
        Check.require
          (!counter = n_threads * rounds)
          "lost updates: counter %d, expected %d" !counter
          (n_threads * rounds);
        Check.no_lost_wakeups rt)
      ()
  in
  assert_ok "mutex counter"
    (Check.run ~seed:21 ~faults:true ~budget:check_budget
       ~strategy:Check.Random_walk prog)

let test_channel_spmc_checked () =
  let consumers = 4 and per_consumer = 15 in
  let n = consumers * per_consumer in
  let prog env =
    let rt = checked_rt env in
    let ch = Usync.Channel.create rt in
    let total = ref 0 in
    let cs =
      List.init consumers (fun i ->
          Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 2)
            ~name:(Printf.sprintf "cons%d" i)
            (fun () ->
              for _ = 1 to per_consumer do
                total := !total + Usync.Channel.recv ch;
                Ult.compute 1e-5
              done))
    in
    let prod =
      Runtime.spawn rt ~kind:Types.Klt_switching ~home:0 ~name:"prod"
        (fun () ->
          for i = 1 to n do
            Usync.Channel.send ch i;
            if i mod 10 = 0 then Ult.compute 5e-5
          done)
    in
    Runtime.start rt;
    Check.program ~runtime:rt ~ults:(prod :: cs) ~cores:2
      ~oracle:(fun () ->
        Check.all_finished rt;
        Check.require
          (!total = n * (n + 1) / 2)
          "each message received exactly once: sum %d, expected %d" !total
          (n * (n + 1) / 2);
        Check.require (Usync.Channel.length ch = 0) "channel not drained";
        Check.no_lost_wakeups rt)
      ()
  in
  assert_ok "channel SPMC"
    (Check.run ~seed:23 ~faults:true ~budget:check_budget
       ~strategy:Check.Random_walk prog)

let test_pipeline_checked () =
  let n = 30 in
  let prog env =
    let rt = checked_rt env in
    let stage1 = Usync.Channel.create rt in
    let stage2 = Usync.Channel.create rt in
    let acc = ref 0 in
    let squarer =
      Runtime.spawn rt ~kind:Types.Klt_switching ~home:0 ~name:"squarer"
        (fun () ->
          for _ = 1 to n do
            Usync.Channel.send stage2 (Usync.Channel.recv stage1 * 2);
            Ult.compute 1e-5
          done)
    in
    let summer =
      Runtime.spawn rt ~kind:Types.Klt_switching ~home:1 ~name:"summer"
        (fun () ->
          for _ = 1 to n do
            acc := !acc + Usync.Channel.recv stage2
          done)
    in
    let feeder =
      Runtime.spawn rt ~kind:Types.Klt_switching ~home:1 ~name:"feeder"
        (fun () ->
          for i = 1 to n do
            Usync.Channel.send stage1 i
          done)
    in
    Runtime.start rt;
    Check.program ~runtime:rt ~ults:[ squarer; summer; feeder ] ~cores:2
      ~oracle:(fun () ->
        Check.all_finished rt;
        Check.require
          (!acc = n * (n + 1))
          "pipeline sum %d, expected %d" !acc
          (n * (n + 1));
        Check.no_lost_wakeups rt)
      ()
  in
  assert_ok "pipeline"
    (Check.run ~seed:29 ~faults:true ~budget:check_budget
       ~strategy:Check.Random_walk prog)

let suite =
  [
    Alcotest.test_case "mutex protects counter" `Quick test_mutex_counter;
    Alcotest.test_case "mutex try_lock" `Quick test_mutex_trylock;
    Alcotest.test_case "mutex unlock unlocked" `Quick test_mutex_unlock_unlocked;
    Alcotest.test_case "semaphore bounds concurrency" `Quick test_semaphore_bound;
    Alcotest.test_case "channel SPMC" `Quick test_channel_spmc;
    Alcotest.test_case "channel try_recv" `Quick test_channel_try_recv;
    Alcotest.test_case "barrier phases" `Quick test_barrier_phases;
    Alcotest.test_case "producer/consumer pipeline" `Quick test_producer_consumer_pipeline;
    Alcotest.test_case "channel readers wake FIFO" `Quick test_channel_reader_fifo;
    Alcotest.test_case "promise waiters wake FIFO" `Quick test_promise_waiter_fifo;
    Alcotest.test_case "barrier releases FIFO" `Quick test_barrier_release_fifo;
    Alcotest.test_case "mutex counter, checked x200" `Quick
      test_mutex_counter_checked;
    Alcotest.test_case "channel SPMC, checked x200" `Quick
      test_channel_spmc_checked;
    Alcotest.test_case "pipeline, checked x200" `Quick test_pipeline_checked;
  ]
