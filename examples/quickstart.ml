(* Quickstart for the REAL fiber runtime: spawn a parallel computation
   on OCaml 5 domains with work stealing and safe-point preemption.

   Run with:  dune exec examples/quickstart.exe *)

let fib_threshold = 15

let rec seq_fib n = if n < 2 then n else seq_fib (n - 1) + seq_fib (n - 2)

(* Fork-join recursion: each [spawn] creates a fiber that any worker
   domain may steal. *)
let rec par_fib n =
  if n < fib_threshold then seq_fib n
  else
    let a = Fiber.spawn (fun () -> par_fib (n - 1)) in
    let b = par_fib (n - 2) in
    Fiber.await a + b

let () =
  (* A pool of workers (domains), with a 5 ms preemption ticker: fibers
     that call [Fiber.check] at safe points get descheduled when their
     time slice is up — the paper's preemption model, GHC-style. *)
  let pool = Fiber.make (Fiber.Config.make ~preempt_interval:5e-3 ()) in
  Printf.printf "fiber pool: %d worker domain(s)\n%!" (Fiber.domains pool);

  (* 1. Fork-join parallelism. *)
  let t0 = Unix.gettimeofday () in
  let r = Fiber.run pool (fun () -> par_fib 32) in
  Printf.printf "par_fib 32 = %d  (%.3fs)\n%!" r (Unix.gettimeofday () -. t0);

  (* 2. parallel_for with automatic chunking and preemption checks. *)
  let n = 1_000_000 in
  let acc = Atomic.make 0 in
  Fiber.run pool (fun () ->
      Fiber.parallel_for 0 n (fun i -> if i mod 97 = 0 then Atomic.incr acc));
  Printf.printf "multiples of 97 below %d: %d\n%!" n (Atomic.get acc);

  (* 3. A long-running fiber coexists with short ones thanks to
     preemption checks in its loop. *)
  let fairness = Fiber.run pool (fun () ->
      let done_short = Atomic.make 0 in
      let long =
        Fiber.spawn (fun () ->
            let t0 = Unix.gettimeofday () in
            while Unix.gettimeofday () -. t0 < 0.05 do
              Fiber.check () (* safe point: yields if the ticker fired *)
            done)
      in
      let shorts = List.init 16 (fun _ -> Fiber.spawn (fun () -> Atomic.incr done_short)) in
      List.iter Fiber.await shorts;
      Fiber.await long;
      Atomic.get done_short)
  in
  Printf.printf "short fibers completed alongside a hog: %d/16 (preemptions: %d)\n%!"
    fairness (Fiber.preemptions pool);
  Fiber.shutdown pool
