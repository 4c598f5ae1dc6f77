(* Multi-domain smoke for the lock-free fiber runtime (dune alias
   @fiber-smoke, part of @runtest).

   Everything here is a liveness/linearizability check that needs real
   domains, which alcotest's in-process suites exercise only lightly:

   1. Chase–Lev deque under contention: 1 owner (push/pop, with
      interleaved push_front) vs N stealer domains.  Every pushed value
      must be claimed exactly once — no losses, no duplicates — and the
      claimed checksum must equal the pushed checksum.
   2. Park/unpark hammer: repeated tiny spawn/await bursts separated by
      forced idle gaps, so workers continuously cross the
      spin -> park -> signal -> unpark path.  A lost wakeup hangs the
      run (the driver's timeout is the failure detector); completing all
      rounds is the pass.
   3. Self-timed quanta across domains: greedy fibers on several
      domains must be preempted at safe points about once per quantum
      on every worker, and complete.

   Iteration counts are sized to finish in a few seconds on a single
   oversubscribed core (CI worst case). *)

let fail fmt = Printf.ksprintf (fun s -> print_endline ("FAIL: " ^ s); exit 1) fmt

(* ------------------------------------------------------------------ *)
(* 1. Deque: 1 owner vs N stealers. *)

let deque_stress ~stealers ~items =
  let d = Fiber.Deque.create () in
  let seen = Array.init items (fun _ -> Atomic.make 0) in
  let claimed = Atomic.make 0 in
  let claimed_sum = Atomic.make 0 in
  (* A sampler domain hammers the racy [length] snapshot throughout: it
     must clamp the ring term's negative transients (owner pop's
     bottom = top - 1 window, thief CAS between the index reads) and
     never report a negative backlog. *)
  let neg_lengths = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        while Atomic.get claimed < items do
          if Fiber.Deque.length d < 0 then Atomic.incr neg_lengths
        done)
  in
  let claim v =
    ignore (Atomic.fetch_and_add (Array.get seen v) 1);
    ignore (Atomic.fetch_and_add claimed_sum v);
    Atomic.incr claimed
  in
  (* Thieves alternate between classic single steals and batched
     raids of mixed sizes, so the iterated per-element claims race
     both the owner and each other. *)
  let thieves =
    List.init stealers (fun t ->
        Domain.spawn (fun () ->
            let rounds = ref 0 in
            while Atomic.get claimed < items do
              incr rounds;
              let r =
                if (t + !rounds) land 1 = 0 then Fiber.Deque.steal d
                else
                  Fiber.Deque.steal_batch d
                    ~max:(2 + ((t + !rounds) mod 7))
                    ~spill:claim
              in
              match r with Some v -> claim v | None -> Domain.cpu_relax ()
            done))
  in
  (* Owner: push everything (every 7th value via the front segment),
     popping a batch every so often so owner pops race the steals. *)
  for v = 0 to items - 1 do
    if v mod 7 = 3 then Fiber.Deque.push_front d v else Fiber.Deque.push d v;
    if v mod 64 = 63 then
      for _ = 1 to 16 do
        match Fiber.Deque.pop d with Some x -> claim x | None -> ()
      done
  done;
  let rec drain () =
    if Atomic.get claimed < items then begin
      (match Fiber.Deque.pop d with
      | Some x -> claim x
      | None -> Domain.cpu_relax ());
      drain ()
    end
  in
  drain ();
  List.iter Domain.join thieves;
  Domain.join sampler;
  if Atomic.get neg_lengths > 0 then
    fail "deque stress: length went negative %d time(s)"
      (Atomic.get neg_lengths);
  Array.iteri
    (fun v c ->
      let c = Atomic.get c in
      if c <> 1 then fail "deque stress: value %d claimed %d times" v c)
    seen;
  let expect = items * (items - 1) / 2 in
  if Atomic.get claimed_sum <> expect then
    fail "deque stress: checksum %d, expected %d" (Atomic.get claimed_sum) expect;
  if Fiber.Deque.length d <> 0 then
    fail "deque stress: %d left over" (Fiber.Deque.length d);
  Printf.printf "deque stress: %d items, %d stealers, no dup/loss\n%!" items
    stealers

(* ------------------------------------------------------------------ *)
(* 2. Park/unpark hammer. *)

let park_hammer ~domains ~rounds =
  let pool = Fiber.make (Fiber.Config.make ~domains ()) in
  let total = Atomic.make 0 in
  for round = 1 to rounds do
    let n =
      Fiber.run pool (fun () ->
          (* A burst small enough that workers go idle between rounds;
             a yield in each child forces a re-queue through the
             wake path as well. *)
          let ps =
            List.init (1 + (round mod 4)) (fun i ->
                Fiber.spawn (fun () ->
                    Fiber.yield ();
                    i + 1))
          in
          List.fold_left (fun acc p -> acc + Fiber.await p) 0 ps)
    in
    ignore (Atomic.fetch_and_add total n)
  done;
  Fiber.shutdown pool;
  let expect = ref 0 in
  for round = 1 to rounds do
    let k = 1 + (round mod 4) in
    expect := !expect + (k * (k + 1) / 2)
  done;
  if Atomic.get total <> !expect then
    fail "park hammer: sum %d, expected %d" (Atomic.get total) !expect;
  Printf.printf "park hammer: %d rounds x %d domains, no lost wakeup\n%!" rounds
    domains

(* ------------------------------------------------------------------ *)
(* 3. Self-timed quanta across domains. *)

let preempt_smoke ~domains =
  let quantum = 0.001 and span = 0.2 in
  let pool = Fiber.make (Fiber.Config.make ~domains ~preempt_interval:quantum ()) in
  let finished =
    Fiber.run pool (fun () ->
        let until = Unix.gettimeofday () +. span in
        let ps =
          List.init (2 * domains) (fun _ ->
              Fiber.spawn (fun () ->
                  while Unix.gettimeofday () < until do
                    Fiber.check ()
                  done;
                  1))
        in
        List.fold_left (fun acc p -> acc + Fiber.await p) 0 ps)
  in
  let preempted = Fiber.preemptions pool in
  Fiber.shutdown pool;
  if finished <> 2 * domains then
    fail "preempt smoke: %d fibers finished, expected %d" finished (2 * domains);
  (* Every worker keeps its own quantum: about span / quantum expiries
     each while it has a core.  A worker the OS deschedules misses the
     quanta it sleeps through, so the floor is an eighth of that, for
     oversubscribed hosts. *)
  let floor = int_of_float (float_of_int domains *. span /. quantum /. 8.0) in
  if preempted < floor then
    fail "preempt smoke: %d preemptions in %.0f ms on %d domains, expected >= %d"
      preempted (span *. 1e3) domains floor;
  Printf.printf "preempt smoke: %d greedy fibers on %d domains, %d preemptions\n%!"
    finished domains preempted

(* ------------------------------------------------------------------ *)
(* 4. Concurrent stats sampler: [Fiber.stats] reads racy plain
   counters while workers mutate them (spawn / steal / complete), so
   individual reads can tear mid-update; the snapshot clamp must keep
   every published field nonnegative no matter when the sampler
   lands.  A dedicated domain hammers the snapshot for the whole
   run — the same access pattern as the [repro top] display thread. *)

let stats_sampler_smoke ~domains ~rounds =
  let pool =
    Fiber.make (Fiber.Config.make ~domains ~preempt_interval:0.002 ())
  in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  let snapshots = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          List.iter
            (fun st ->
              Atomic.incr snapshots;
              if
                st.Fiber.st_pending < 0
                || st.Fiber.st_spawned < 0
                || st.Fiber.st_local_steals < 0
                || st.Fiber.st_overflow_in < 0
                || st.Fiber.st_overflow_out < 0
                || st.Fiber.st_batch_stolen < 0
              then Atomic.incr bad)
            (Fiber.stats pool)
        done)
  in
  for _round = 1 to rounds do
    let n =
      Fiber.run pool (fun () ->
          let ps =
            List.init 32 (fun i ->
                Fiber.spawn (fun () ->
                    Fiber.yield ();
                    i))
          in
          List.fold_left (fun acc p -> acc + Fiber.await p) 0 ps)
    in
    if n <> 32 * 31 / 2 then fail "stats sampler: round sum %d" n
  done;
  Atomic.set stop true;
  Domain.join sampler;
  Fiber.shutdown pool;
  if Atomic.get bad > 0 then
    fail "stats sampler: %d negative snapshot field(s)" (Atomic.get bad);
  Printf.printf
    "stats sampler: %d snapshots against %d rounds, every field >= 0\n%!"
    (Atomic.get snapshots) rounds

(* ------------------------------------------------------------------ *)
(* 5. Span round-trip: a small recorder-armed serving run, dumped
   and re-analyzed, must decompose every complete request span into
   queueing + service + preemption overhead whose sum reproduces the
   measured sojourn bucket-for-bucket — the exactness [repro observe]
   advertises. *)

let serve_span_smoke () =
  let cfg =
    {
      Serve.default with
      Serve.rate = 2000.0;
      duration = 0.25;
      domains = 3;
      recorder = true;
    }
  in
  let path = Filename.temp_file "serve_span_smoke" ".flt" in
  let rep = Serve.run ~dump:path cfg in
  if rep.Serve.r_completed <> rep.Serve.r_offered then
    fail "span smoke: %d/%d requests completed" rep.Serve.r_completed
      rep.Serve.r_offered;
  let d =
    match Preempt_core.Recorder.load ~path with
    | Ok d -> d
    | Error e -> fail "span smoke: dump does not decode: %s" e
  in
  Sys.remove path;
  match (Experiments.Observe.of_dump d).Experiments.Observe.r_spans with
  | None -> fail "span smoke: no span section in the observe report"
  | Some s ->
      let open Experiments.Observe in
      if s.spn_complete = 0 then fail "span smoke: no complete spans";
      if s.spn_verified <> s.spn_complete then
        fail
          "span smoke: %d/%d spans verified (stage sum must reproduce the \
           measured sojourn bucket-for-bucket)"
          s.spn_verified s.spn_complete;
      Printf.printf
        "span smoke: %d/%d spans verified against measured sojourns\n%!"
        s.spn_verified s.spn_complete

(* ------------------------------------------------------------------ *)
(* 6. Spawn accounting: [Fiber.run] enqueues its main fiber without
   counting it, so once the pool is quiescent [st_spawned] must equal
   the number of [Fiber.spawn] calls exactly.  The three retired
   counters must read 0. *)

let spawn_accounting_smoke ~rounds ~burst =
  let pool = Fiber.make (Fiber.Config.make ~domains:1 ()) in
  for _round = 1 to rounds do
    let n =
      Fiber.run pool (fun () ->
          let ps = List.init burst (fun i -> Fiber.spawn (fun () -> i)) in
          List.fold_left (fun acc p -> acc + Fiber.await p) 0 ps)
    in
    if n <> burst * (burst - 1) / 2 then fail "spawn accounting: round sum %d" n
  done;
  let st = List.hd (Fiber.stats pool) in
  Fiber.shutdown pool;
  let spawned = rounds * burst in
  if st.Fiber.st_spawned <> spawned then
    fail "spawn accounting: st_spawned = %d, expected %d" st.Fiber.st_spawned
      spawned;
  if st.Fiber.st_recycled <> 0 || st.Fiber.st_recycle_miss <> 0
     || st.Fiber.st_leapfrog <> 0
  then
    fail "spawn accounting: retired counters %d/%d/%d, expected 0"
      st.Fiber.st_recycled st.Fiber.st_recycle_miss st.Fiber.st_leapfrog;
  Printf.printf "spawn accounting: %d/%d spawns counted\n%!" st.Fiber.st_spawned
    spawned

(* ------------------------------------------------------------------ *)
(* 7. Work-first joins, exactly once.  On a 2-domain pool, every
   child of a fork–join tree is either taken back by its joiner and run
   inline or started as a fiber by a worker that popped or stole it —
   never both, never neither.  Each child body bumps its own counter;
   every counter must read exactly 1, and their sum must equal
   [st_spawned].  Uneven leaf work and the odd yield keep the thief busy
   raiding the deque the joiners take back from. *)

let join_exactly_once ~rounds ~depth =
  let pool = Fiber.make (Fiber.Config.make ~domains:2 ()) in
  let nodes = (1 lsl (depth + 1)) - 1 in
  let total = ref 0 in
  for round = 1 to rounds do
    let runs = Array.init nodes (fun _ -> Atomic.make 0) in
    (* Node [i] spawns its children [2i+1] and [2i+2] and joins them
       newest-first; the root is not spawned. *)
    let rec node i d =
      if d = 0 then begin
        let acc = ref i in
        for _ = 1 to (i + round) mod 5 * 400 do
          acc := (!acc * 31) land 0xffff
        done;
        if i mod 61 = 0 then Fiber.yield ();
        ignore (Sys.opaque_identity !acc)
      end
      else begin
        let child c =
          Fiber.spawn (fun () ->
              Atomic.incr runs.(c);
              node c (d - 1))
        in
        let l = child ((2 * i) + 1) in
        let r = child ((2 * i) + 2) in
        Fiber.await r;
        Fiber.await l
      end
    in
    Fiber.run pool (fun () -> node 0 depth);
    Array.iteri
      (fun i c ->
        let c = Atomic.get c in
        let expect = if i = 0 then 0 else 1 in
        if c <> expect then
          fail "join exactly-once: round %d child %d ran %d times" round i c;
        total := !total + c)
      runs
  done;
  let st = List.hd (Fiber.stats pool) in
  Fiber.shutdown pool;
  if st.Fiber.st_spawned <> !total then
    fail "join exactly-once: %d child runs, st_spawned = %d" !total
      st.Fiber.st_spawned;
  Printf.printf
    "join exactly-once: %d children over %d trees ran once each, %d local steals\n%!"
    !total rounds st.Fiber.st_local_steals

let () =
  deque_stress ~stealers:3 ~items:30_000;
  park_hammer ~domains:3 ~rounds:400;
  preempt_smoke ~domains:2;
  stats_sampler_smoke ~domains:3 ~rounds:150;
  serve_span_smoke ();
  spawn_accounting_smoke ~rounds:25 ~burst:16;
  join_exactly_once ~rounds:200 ~depth:9;
  print_endline "fiber-smoke: OK"
