(* Tests for the real (executable, multicore) fiber runtime. *)

let with_pool ?(domains = 2) ?preempt_interval f =
  let pool = Fiber.make (Fiber.Config.make ~domains ?preempt_interval ()) in
  Fun.protect ~finally:(fun () -> Fiber.shutdown pool) (fun () -> f pool)

let test_run_returns () =
  with_pool (fun pool ->
      Alcotest.(check int) "result" 42 (Fiber.run pool (fun () -> 42)))

let test_run_propagates_exception () =
  with_pool (fun pool ->
      Alcotest.check_raises "exn" Exit (fun () ->
          Fiber.run pool (fun () -> raise Exit)))

(* An exception from a [suspend_or] decision is raised in the fiber that
   asked, where its own handler sees it, and the pool stays usable: the
   decision runs on the worker's stack, outside the fiber. *)
let test_suspend_or_decide_raises () =
  with_pool ~domains:1 (fun pool ->
      let first =
        Fiber.run pool (fun () ->
            try
              Fiber.suspend_or (fun _ -> raise Exit);
              "returned"
            with Exit -> "caught")
      in
      Alcotest.(check string) "the fiber catches it" "caught" first;
      let child =
        Fiber.run pool (fun () ->
            let p = Fiber.spawn (fun () -> Fiber.suspend_or (fun _ -> raise Not_found)) in
            match Fiber.await p with () -> "returned" | exception Not_found -> "awaited")
      in
      Alcotest.(check string) "a child's escapes through await" "awaited" child)

let test_spawn_await () =
  with_pool (fun pool ->
      let r =
        Fiber.run pool (fun () ->
            let p = Fiber.spawn (fun () -> 7 * 6) in
            Fiber.await p)
      in
      Alcotest.(check int) "child result" 42 r)

let test_await_failed_child () =
  with_pool (fun pool ->
      Alcotest.check_raises "child exn" Not_found (fun () ->
          Fiber.run pool (fun () -> Fiber.await (Fiber.spawn (fun () -> raise Not_found)))))

let test_many_fibers () =
  with_pool ~domains:3 (fun pool ->
      let total =
        Fiber.run pool (fun () ->
            let ps = List.init 200 (fun i -> Fiber.spawn (fun () -> i)) in
            List.fold_left (fun acc p -> acc + Fiber.await p) 0 ps)
      in
      Alcotest.(check int) "sum 0..199" (199 * 200 / 2) total)

let test_nested_spawn () =
  with_pool (fun pool ->
      let r =
        Fiber.run pool (fun () ->
            let p =
              Fiber.spawn (fun () ->
                  let q = Fiber.spawn (fun () -> 10) in
                  Fiber.await q + 1)
            in
            Fiber.await p + 1)
      in
      Alcotest.(check int) "nested" 12 r)

let test_yield_progress () =
  with_pool ~domains:1 (fun pool ->
      (* Single worker: a yielding producer and a consumer must interleave. *)
      let r =
        Fiber.run pool (fun () ->
            let flag = Atomic.make false in
            let setter = Fiber.spawn (fun () -> Atomic.set flag true) in
            (* Yield until the other fiber has run. *)
            while not (Atomic.get flag) do
              Fiber.yield ()
            done;
            Fiber.await setter;
            true)
      in
      Alcotest.(check bool) "interleaved" true r)

let test_parallel_for_covers () =
  with_pool ~domains:3 (fun pool ->
      let hits = Array.make 1000 0 in
      Fiber.run pool (fun () ->
          Fiber.parallel_for 0 1000 (fun i -> hits.(i) <- hits.(i) + 1));
      Array.iteri (fun i h -> if h <> 1 then Alcotest.failf "index %d hit %d" i h) hits)

let test_parallel_speedup_runs () =
  (* Not a timing assertion (CI noise), just that parallel fib works. *)
  with_pool ~domains:3 (fun pool ->
      let rec fib n =
        if n < 12 then seq_fib n
        else
          let a = Fiber.spawn (fun () -> fib (n - 1)) in
          let b = fib (n - 2) in
          Fiber.await a + b
      and seq_fib n = if n < 2 then n else seq_fib (n - 1) + seq_fib (n - 2) in
      let r = Fiber.run pool (fun () -> fib 20) in
      Alcotest.(check int) "fib 20" 6765 r)

(* Greedy [check] loops until wall-clock time [until]. *)
let greedy_until until () =
  while Unix.gettimeofday () < until do
    Fiber.check ()
  done

let test_quantum_is_kept () =
  with_pool ~domains:1 ~preempt_interval:0.001 (fun pool ->
      (* Two greedy fibers sharing one worker for 200 ms under a 1 ms
         quantum must be preempted about once per quantum; a preemption
         source that only runs at OCaml's 50 ms master-lock tick takes
         about 4. *)
      Fiber.run pool (fun () ->
          let until = Unix.gettimeofday () +. 0.2 in
          let a = Fiber.spawn (greedy_until until) in
          let b = Fiber.spawn (greedy_until until) in
          Fiber.await a;
          Fiber.await b);
      let n = Fiber.preemptions pool in
      if n < 50 then Alcotest.failf "%d preemptions in 200 ms at 1 ms, expected >= 50" n)

let test_live_telemetry () =
  (* Worker 0 runs a main fiber that never reaches a safe point; the
     greedy fibers on worker 1 take every expiry.  Each worker counts
     its own preemptions, and their sum is the pool's count.  Without
     overflow neither worker can take the other's fibers: worker 1
     could otherwise steal [main] before worker 0 starts, leaving the
     spinners to worker 0. *)
  let cfg =
    Fiber.Config.make ~domains:2 ~preempt_interval:0.001
      ~subpools:
        [
          Fiber.Config.subpool ~overflow:false ~name:"main" ~workers:[ 0 ] ();
          Fiber.Config.subpool ~overflow:false ~name:"spin" ~workers:[ 1 ] ();
        ]
      ()
  in
  let pool = Fiber.make cfg in
  Fun.protect ~finally:(fun () -> Fiber.shutdown pool) (fun () ->
      Fiber.run pool (fun () ->
          let until = Unix.gettimeofday () +. 0.1 in
          let ps = List.init 2 (fun _ -> Fiber.spawn ~pool:"spin" (greedy_until until)) in
          while Unix.gettimeofday () < until do
            ()
          done;
          List.iter Fiber.await ps));
  match Fiber.worker_stats pool with
  | [ w0; w1 ] ->
      Alcotest.(check int) "worker 0 id" 0 w0.Fiber.ws_worker;
      Alcotest.(check string) "worker 1 sub-pool" "spin" w1.Fiber.ws_subpool;
      Alcotest.(check int) "worker 0 never expires" 0 w0.Fiber.ws_preempts;
      if w1.Fiber.ws_preempts <= 0 then
        Alcotest.fail "worker 1 took no preemption in 100 ms at 1 ms";
      Alcotest.(check (float 0.0)) "worker 0 quantum" 1e-3 w0.Fiber.ws_quantum;
      Alcotest.(check (float 0.0)) "worker 1 quantum" 1e-3 w1.Fiber.ws_quantum;
      Alcotest.(check int) "per-worker sum is the pool's count"
        (Fiber.preemptions pool)
        (w0.Fiber.ws_preempts + w1.Fiber.ws_preempts)
  | ws -> Alcotest.failf "%d worker rows for 2 domains" (List.length ws)

let test_live_adaptive () =
  (* Eight greedy fibers queued on one adaptive worker: every expiry
     sees a backlog of seven, so the controller must shrink the quantum
     below the base interval and record each move. *)
  let base = 0.001 in
  let pool =
    Fiber.make
      (Fiber.Config.make ~domains:1 ~preempt_interval:base ~adaptive:true
         ~recorder:true ())
  in
  Fun.protect ~finally:(fun () -> Fiber.shutdown pool) (fun () ->
      let lowest = ref infinity in
      Fiber.run pool (fun () ->
          let until = Unix.gettimeofday () +. 0.1 in
          let observer () =
            while Unix.gettimeofday () < until do
              List.iter
                (fun st ->
                  List.iter (fun (_, q) -> lowest := Float.min !lowest q) st.Fiber.st_quanta)
                (Fiber.stats pool);
              for _ = 1 to 1000 do
                Fiber.check ()
              done
            done
          in
          let ps =
            Fiber.spawn observer :: List.init 7 (fun _ -> Fiber.spawn (greedy_until until))
          in
          List.iter Fiber.await ps);
      if not (!lowest < base) then
        Alcotest.failf "st_quanta never dropped below %g (lowest %g)" base !lowest;
      let r = Fiber.recorder pool in
      let changes =
        Array.fold_left
          (fun n (e : Preempt_core.Recorder.event) ->
            if e.e_code = Preempt_core.Recorder.ev_quantum_change then n + 1 else n)
          0 (Preempt_core.Recorder.events r)
      in
      if changes = 0 then Alcotest.fail "no ev_quantum_change events recorded";
      match Preempt_core.Recorder.(decode (encode r)) with
      | Error e -> Alcotest.failf "dump round-trip: %s" e
      | Ok dump -> (
          match (Experiments.Observe.of_dump dump).Experiments.Observe.r_quanta with
          | None -> Alcotest.fail "no quanta split in the report"
          | Some qs ->
              let open Experiments.Observe in
              Alcotest.(check int) "every change in the split" changes qs.qs_changes;
              List.iter
                (fun row ->
                  Alcotest.(check int) "worker 0 only" 0 row.qr_worker;
                  Alcotest.(check bool) "min below base" true (row.qr_min < base))
                qs.qs_rows))

let test_pool_reuse_across_runs () =
  with_pool (fun pool ->
      Alcotest.(check int) "first" 1 (Fiber.run pool (fun () -> 1));
      Alcotest.(check int) "second" 2 (Fiber.run pool (fun () -> 2)))

(* Queued work at [run] and [shutdown]: worker 0 serves the queues only
   inside [run], so on one domain a child that [main] never awaited
   waits for the next [run]; [shutdown] drops what is still queued. *)
let test_unawaited_child_runs_next () =
  with_pool ~domains:1 (fun pool ->
      let ran = Atomic.make false in
      Fiber.run pool (fun () -> ignore (Fiber.spawn (fun () -> Atomic.set ran true)));
      Alcotest.(check bool) "not run by the first run" false (Atomic.get ran);
      Fiber.run pool (fun () -> ());
      Alcotest.(check bool) "run by the next run" true (Atomic.get ran))

let test_shutdown_drops_queued () =
  let pool = Fiber.make (Fiber.Config.make ~domains:1 ()) in
  let ran = Atomic.make 0 in
  Fiber.run pool (fun () ->
      for _ = 1 to 3 do
        ignore (Fiber.spawn (fun () -> Atomic.incr ran))
      done);
  Fiber.shutdown pool;
  Alcotest.(check int) "no queued task ran" 0 (Atomic.get ran);
  Alcotest.(check (list int)) "st_pending counts them" [ 3 ]
    (List.map (fun st -> st.Fiber.st_pending) (Fiber.stats pool))

let test_shutdown_rejects_run () =
  let pool = Fiber.make (Fiber.Config.make ~domains:1 ()) in
  Fiber.shutdown pool;
  Alcotest.check_raises "rejected" (Invalid_argument "Fiber.run: pool is shut down")
    (fun () -> ignore (Fiber.run pool (fun () -> ())))

let test_parallel_map () =
  with_pool ~domains:3 (fun pool ->
      let r = Fiber.run pool (fun () -> Fiber.parallel_map (fun x -> x * x) [ 1; 2; 3; 4 ]) in
      Alcotest.(check (list int)) "squares in order" [ 1; 4; 9; 16 ] r)

(* --- Sharded sub-pools ---------------------------------------------- *)

let with_sharded ?(recorder = false) f =
  let pool =
    Fiber.make
      (Fiber.Config.make ~domains:2 ~recorder
         ~subpools:
           [
             Fiber.Config.subpool ~name:"compute" ~workers:[ 0 ] ();
             Fiber.Config.subpool ~name:"analysis" ~workers:[ 1 ] ();
           ]
         ())
  in
  Fun.protect ~finally:(fun () -> Fiber.shutdown pool) (fun () -> f pool)

let test_targeted_spawn () =
  with_sharded (fun pool ->
      Alcotest.(check (list string))
        "names in config order" [ "compute"; "analysis" ]
        (List.map (fun st -> st.Fiber.st_name) (Fiber.stats pool));
      let r =
        Fiber.run pool (fun () ->
            Fiber.await (Fiber.spawn ~pool:"analysis" (fun () -> 21 * 2)))
      in
      Alcotest.(check int) "targeted child" 42 r;
      let st =
        List.find (fun s -> s.Fiber.st_name = "analysis") (Fiber.stats pool)
      in
      Alcotest.(check bool) "counted against analysis" true
        (st.Fiber.st_spawned > 0))

let test_unknown_subpool_rejected () =
  with_sharded (fun pool ->
      Alcotest.check_raises "unknown target"
        (Invalid_argument "Fiber: unknown sub-pool \"nope\"") (fun () ->
          Fiber.run pool (fun () ->
              Fiber.await (Fiber.spawn ~pool:"nope" (fun () -> ()))));
      Alcotest.check_raises "unknown submit"
        (Invalid_argument "Fiber: unknown sub-pool \"nope\"") (fun () ->
          ignore (Fiber.submit pool ~pool:"nope" (fun () -> ()))))

(* A sub-pool configured with no scheduler argument runs on the
   work-stealing queues, the runtime's one scheduler: on an explicit
   2-worker sub-pool 100 local spawns sum correctly, and stats report
   exactly that sub-pool.  (The paper's packing and priority schedulers
   live in the simulator.) *)
let test_pluggable_schedulers () =
  let pool =
    Fiber.make
      (Fiber.Config.make ~domains:2
         ~subpools:[ Fiber.Config.subpool ~name:"main" ~workers:[ 0; 1 ] () ]
         ())
  in
  Fun.protect
    ~finally:(fun () -> Fiber.shutdown pool)
    (fun () ->
      let total =
        Fiber.run pool (fun () ->
            let ps = List.init 100 (fun i -> Fiber.spawn (fun () -> i)) in
            List.fold_left (fun acc p -> acc + Fiber.await p) 0 ps)
      in
      Alcotest.(check int) "sums" (99 * 100 / 2) total;
      match Fiber.stats pool with
      | [ st ] -> Alcotest.(check string) "sub-pool name" "main" st.Fiber.st_name
      | sts -> Alcotest.failf "%d stats rows, expected 1" (List.length sts))

(* Regression: a targeted spawn into an otherwise idle sub-pool must
   run.  It takes the external path (the front segment of a
   round-robin-chosen member's deque), and the push signals a single
   sleeper, which may be the other member; that member must still reach
   the task through its steal sweep.  A routing that parked external
   work where only one member looks (a private queue) once stranded it
   until an unrelated push arrived.  The sequential awaits re-park both
   members between spawns, so such a bug hangs this test with
   probability ~1 - 2^-20. *)
let test_targeted_spawn_wakes_idle_subpool () =
  let pool =
    Fiber.make
      (Fiber.Config.make ~domains:3
         ~subpools:
           [
             Fiber.Config.subpool ~name:"main" ~workers:[ 0 ] ();
             Fiber.Config.subpool ~name:"insitu" ~workers:[ 1; 2 ] ();
           ]
         ())
  in
  Fun.protect
    ~finally:(fun () -> Fiber.shutdown pool)
    (fun () ->
      let total =
        Fiber.run pool (fun () ->
            let acc = ref 0 in
            for i = 1 to 20 do
              acc := !acc + Fiber.await (Fiber.spawn ~pool:"insitu" (fun () -> i))
            done;
            !acc)
      in
      Alcotest.(check int) "all targeted spawns ran" (20 * 21 / 2) total)

(* Engineered overflow: 40 x ~2ms tasks pinned to a 1-worker compute
   sub-pool while the analysis worker idles, so analysis must
   overflow-steal; both the per-sub-pool counters and the flight
   recorder (through an encode/decode round trip and the Observe steal
   split) must attribute the cross-sub-pool traffic.  Both sub-pools
   have one worker, so every steal is an overflow raid: each raid bumps
   the thief's in-count once and emits one [ev_pool_steal] and one
   [ev_steal_batch], and each task it claims bumps the victim's
   out-count once.  Once the pool has drained (shut down: every worker
   joined) the counters and the recorded events agree exactly. *)
let test_overflow_attribution () =
  with_sharded ~recorder:true (fun pool ->
      Fiber.run pool (fun () ->
          let ps =
            List.init 40 (fun _ ->
                Fiber.spawn ~pool:"compute" (fun () ->
                    let t0 = Unix.gettimeofday () in
                    while Unix.gettimeofday () -. t0 < 0.002 do
                      ()
                    done))
          in
          List.iter Fiber.await ps);
      Fiber.shutdown pool;
      let find n = List.find (fun s -> s.Fiber.st_name = n) (Fiber.stats pool) in
      let analysis = find "analysis" and compute = find "compute" in
      let raids = analysis.Fiber.st_overflow_in in
      let moved = compute.Fiber.st_overflow_out in
      Alcotest.(check bool) "analysis overflowed in" true (raids > 0);
      Alcotest.(check int) "extra tasks are the thief's spill" (moved - raids)
        analysis.Fiber.st_batch_stolen;
      let rec_ = Fiber.recorder pool in
      match Preempt_core.Recorder.(decode (encode rec_)) with
      | Error e -> Alcotest.failf "dump round-trip: %s" e
      | Ok dump -> (
          let open Experiments.Observe in
          let r = of_dump dump in
          match r.r_steals with
          | None -> Alcotest.fail "no steal split in the report"
          | Some s ->
              Alcotest.(check int) "no same-sub-pool steals" 0 s.ss_local;
              Alcotest.(check int) "one event per overflow raid" raids
                s.ss_overflow;
              Alcotest.(check int) "one batch per raid" raids
                (List.fold_left (fun n (_, k) -> n + k) 0 s.ss_batches);
              Alcotest.(check int) "batch sizes sum to the tasks moved" moved
                (List.fold_left (fun n (b, k) -> n + (b * k)) 0 s.ss_batches);
              List.iter
                (fun (thief, victim, n) ->
                  if not (thief = 1 && victim = 0 && n > 0) then
                    Alcotest.failf
                      "unexpected steal pair: sub-pool %d from %d (%d)" thief
                      victim n)
                s.ss_pairs))

(* --- Work-first joins ------------------------------------------------ *)

type _ Effect.t += Probe : int Effect.t

(* [Fiber.await] under a handler for [Probe], which answers 41.  A child
   that performs [Probe] reaches this handler only if it runs inline,
   inside the joiner's fiber; run as a fiber of its own, its [Probe] is
   unhandled and [await] re-raises [Effect.Unhandled]. *)
let await_probing p =
  Effect.Deep.try_with Fiber.await p
    {
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Probe ->
              Some (fun (k : (a, _) Effect.Deep.continuation) -> Effect.Deep.continue k 41)
          | _ -> None);
    }

let test_inline_child_runs_in_joiner () =
  (* One worker: the child is on top of the only deque at the join. *)
  with_pool ~domains:1 (fun pool ->
      let r =
        Fiber.run pool (fun () -> await_probing (Fiber.spawn (fun () -> Effect.perform Probe + 1)))
      in
      Alcotest.(check int) "child saw the joiner's handler" 42 r)

let test_inline_child_raises () =
  with_pool ~domains:1 (fun pool ->
      let r =
        Fiber.run pool (fun () ->
            let p =
              Fiber.spawn (fun () ->
                  if Effect.perform Probe = 41 then raise Not_found;
                  0)
            in
            match await_probing p with
            | _ -> "returned"
            | exception Not_found -> (
                (* The outcome is recorded: a second await re-raises too. *)
                match Fiber.await p with _ -> "returned" | exception Not_found -> "raised"))
      in
      Alcotest.(check string) "await re-raises" "raised" r)

let test_inline_child_yields () =
  with_pool ~domains:1 (fun pool ->
      let r, other_ran =
        Fiber.run pool (fun () ->
            let flag = Atomic.make false in
            let other = Fiber.spawn (fun () -> Atomic.set flag true) in
            let child =
              Fiber.spawn (fun () ->
                  (* Each yield suspends the joiner with the child; the
                     worker runs [other] meanwhile. *)
                  while not (Atomic.get flag) do
                    Fiber.yield ()
                  done;
                  Effect.perform Probe + 1)
            in
            let r = await_probing child in
            Fiber.await other;
            (r, Atomic.get flag))
      in
      Alcotest.(check int) "inline child result" 42 r;
      Alcotest.(check bool) "other fiber ran during the yields" true other_ran)

let test_inline_child_blocks_on_mutex () =
  with_pool ~domains:1 (fun pool ->
      let r, log =
        Fiber.run pool (fun () ->
            let m = Fiber.Fsync.Mutex.create () in
            let log = ref [] in
            let locked = Atomic.make false and release = Atomic.make false in
            let holder =
              Fiber.spawn (fun () ->
                  Fiber.Fsync.Mutex.lock m;
                  Atomic.set locked true;
                  while not (Atomic.get release) do
                    Fiber.yield ()
                  done;
                  log := "holder unlocks" :: !log;
                  Fiber.Fsync.Mutex.unlock m)
            in
            while not (Atomic.get locked) do
              Fiber.yield ()
            done;
            let child =
              Fiber.spawn (fun () ->
                  Atomic.set release true;
                  (* Blocks: the joiner is suspended with the child until
                     the holder unlocks. *)
                  Fiber.Fsync.Mutex.with_lock m (fun () -> log := "child locked" :: !log);
                  Effect.perform Probe + 1)
            in
            let r = await_probing child in
            Fiber.await holder;
            (r, List.rev !log))
      in
      Alcotest.(check int) "inline child result" 42 r;
      Alcotest.(check (list string)) "lock order" [ "holder unlocks"; "child locked" ] log)

(* Two workers.  A blocker keeps worker 1 busy so the child cannot be
   stolen and runs inline on worker 0; the child then spawns a grandchild
   and frees worker 1, which steals it.  The child's await on the stolen
   grandchild suspends the joiner, and both resume when it resolves. *)
let test_inline_child_awaits_stolen_grandchild () =
  with_pool ~domains:2 (fun pool ->
      let r, joiner_dom, grand_dom =
        Fiber.run pool (fun () ->
            let started = Atomic.make false and release = Atomic.make false in
            let blocker =
              Fiber.spawn (fun () ->
                  Atomic.set started true;
                  while not (Atomic.get release) do
                    Domain.cpu_relax ()
                  done)
            in
            while not (Atomic.get started) do
              Domain.cpu_relax ()
            done;
            let grand_dom = ref None in
            let child =
              Fiber.spawn (fun () ->
                  let g_started = Atomic.make false and waiting = Atomic.make false in
                  let g =
                    Fiber.spawn (fun () ->
                        grand_dom := Some (Domain.self ());
                        Atomic.set g_started true;
                        while not (Atomic.get waiting) do
                          Domain.cpu_relax ()
                        done;
                        Unix.sleepf 0.002;
                        10)
                  in
                  Atomic.set release true;
                  while not (Atomic.get g_started) do
                    Domain.cpu_relax ()
                  done;
                  Atomic.set waiting true;
                  Fiber.await g + Effect.perform Probe)
            in
            let joiner_dom = Domain.self () in
            let r = await_probing child in
            Fiber.await blocker;
            (r, joiner_dom, !grand_dom))
      in
      Alcotest.(check int) "grandchild + probe" 51 r;
      match grand_dom with
      | None -> Alcotest.fail "grandchild never ran"
      | Some d ->
          Alcotest.(check bool) "grandchild was stolen" true
            ((d :> int) <> (joiner_dom :> int)))

let rec pfib n =
  if n < 12 then sfib n
  else
    let a = Fiber.spawn (fun () -> pfib (n - 1)) in
    let b = pfib (n - 2) in
    Fiber.await a + b

and sfib n = if n < 2 then n else sfib (n - 1) + sfib (n - 2)

(* Spawns of [pfib n]: one per call at or above the cutoff. *)
let rec pfib_spawns n = if n < 12 then 0 else 1 + pfib_spawns (n - 1) + pfib_spawns (n - 2)

(* On one worker nothing is stolen and [pfib] joins newest-first, so
   every child is on top of the deque at its join and runs inline. *)
let test_inline_joins_counted () =
  let pool = Fiber.make (Fiber.Config.make ~domains:1 ()) in
  let r = Fiber.run pool (fun () -> pfib 20) in
  Fiber.shutdown pool;
  Alcotest.(check int) "pfib 20" 6765 r;
  match Fiber.stats pool with
  | [ st ] ->
      Alcotest.(check int) "every join inline" (pfib_spawns 20) st.Fiber.st_inline_joins
  | _ -> Alcotest.fail "expected one sub-pool"

let test_parallel_map_order_2_domains () =
  with_pool ~domains:2 (fun pool ->
      let xs = List.init 500 Fun.id in
      let f x =
        (* Uneven work, so thieves take some elements and not others. *)
        let acc = ref x in
        for _ = 1 to (x mod 7) * 200 do
          acc := (!acc * 31) land 0xffff
        done;
        (x, !acc)
      in
      let r = Fiber.run pool (fun () -> Fiber.parallel_map f xs) in
      Alcotest.(check (list (pair int int))) "input order" (List.map f xs) r)

let test_deque_basics () =
  let d = Fiber.Deque.create () in
  Fiber.Deque.push d 1;
  Fiber.Deque.push d 2;
  Fiber.Deque.push d 3;
  Alcotest.(check (option int)) "owner LIFO" (Some 3) (Fiber.Deque.pop d);
  Alcotest.(check (option int)) "thief FIFO" (Some 1) (Fiber.Deque.steal d);
  Alcotest.(check int) "len" 1 (Fiber.Deque.length d)

let suite =
  [
    Alcotest.test_case "run returns" `Quick test_run_returns;
    Alcotest.test_case "run propagates exception" `Quick test_run_propagates_exception;
    Alcotest.test_case "suspend_or decide raises" `Quick test_suspend_or_decide_raises;
    Alcotest.test_case "spawn/await" `Quick test_spawn_await;
    Alcotest.test_case "await failed child" `Quick test_await_failed_child;
    Alcotest.test_case "many fibers" `Quick test_many_fibers;
    Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
    Alcotest.test_case "yield progress (1 worker)" `Quick test_yield_progress;
    Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for_covers;
    Alcotest.test_case "parallel fib" `Quick test_parallel_speedup_runs;
    Alcotest.test_case "quantum is kept" `Quick test_quantum_is_kept;
    Alcotest.test_case "live telemetry" `Quick test_live_telemetry;
    Alcotest.test_case "live adaptive quanta" `Quick test_live_adaptive;
    Alcotest.test_case "pool reuse" `Quick test_pool_reuse_across_runs;
    Alcotest.test_case "shutdown rejects run" `Quick test_shutdown_rejects_run;
    Alcotest.test_case "unawaited child runs on the next run" `Quick
      test_unawaited_child_runs_next;
    Alcotest.test_case "shutdown drops queued tasks" `Quick
      test_shutdown_drops_queued;
    Alcotest.test_case "parallel_map" `Quick test_parallel_map;
    Alcotest.test_case "targeted spawn" `Quick test_targeted_spawn;
    Alcotest.test_case "unknown sub-pool rejected" `Quick
      test_unknown_subpool_rejected;
    Alcotest.test_case "pluggable schedulers" `Quick test_pluggable_schedulers;
    Alcotest.test_case "targeted spawn wakes an idle sub-pool" `Quick
      test_targeted_spawn_wakes_idle_subpool;
    Alcotest.test_case "overflow attribution" `Quick test_overflow_attribution;
    Alcotest.test_case "deque basics" `Quick test_deque_basics;
    Alcotest.test_case "inline child runs in the joiner" `Quick
      test_inline_child_runs_in_joiner;
    Alcotest.test_case "inline child raises" `Quick test_inline_child_raises;
    Alcotest.test_case "inline child yields" `Quick test_inline_child_yields;
    Alcotest.test_case "inline child blocks on Fsync.Mutex" `Quick
      test_inline_child_blocks_on_mutex;
    Alcotest.test_case "inline child awaits stolen grandchild" `Quick
      test_inline_child_awaits_stolen_grandchild;
    Alcotest.test_case "inline joins counted" `Quick test_inline_joins_counted;
    Alcotest.test_case "parallel_map order (2 domains)" `Quick
      test_parallel_map_order_2_domains;
  ]
