(* forkjoin: closed loop, CPU-bound.  One client computes fib(30) as a
   parallel job (a fiber per call above the sequential cutoff), waits
   for the result, and starts the next, on a 2-domain pool with no
   ticker.  Spawn, deque push/pop/steal, batched steals, leapfrogging
   joins and fiber recycling carry the work; the ticker and the external
   submit path are never used. *)

let cutoff = 12

let job_n ~tiny = if tiny then 22 else 30

let rec sfib n = if n < 2 then n else sfib (n - 1) + sfib (n - 2)

(* Spawns of one job: one per call above the cutoff. *)
let rec spawns n = if n <= cutoff then 0 else 1 + spawns (n - 1) + spawns (n - 2)

let rec pfib n =
  if n <= cutoff then sfib n
  else
    let a = Fiber.spawn (fun () -> pfib (n - 1)) in
    let b = pfib (n - 2) in
    Fiber.await a + b

(* The same job with every spawn and await bracketed by a span whose
   parent is the job's span.  An await whose promise was not yet
   resolved at the call is recorded as "Fiber.await(blocked)". *)
type names = { n_job : int; n_spawn : int; n_await : int; n_blocked : int }

let names sp =
  {
    n_job = Spans.intern sp "job";
    n_spawn = Spans.intern sp "Fiber.spawn";
    n_await = Spans.intern sp "Fiber.await";
    n_blocked = Spans.intern sp "Fiber.await(blocked)";
  }

let rec pfib_traced sp nm ~job ~req n =
  if n <= cutoff then sfib n
  else begin
    let s = Spans.enter sp ~name:nm.n_spawn ~parent:job ~req in
    let a = Fiber.spawn (fun () -> pfib_traced sp nm ~job ~req (n - 1)) in
    Spans.leave sp s;
    let b = pfib_traced sp nm ~job ~req (n - 2) in
    let name = if Fiber.is_resolved a then nm.n_await else nm.n_blocked in
    let w = Spans.enter sp ~name ~parent:job ~req in
    let r = Fiber.await a in
    Spans.leave sp w;
    r + b
  end

let config () = Fiber.Config.make ~domains:2 ()

(* Set-up cost: building the pool, [n] times.  Tear-down is left out:
   joining a domain takes 25 us or 250 us depending on the phase of the
   OCaml runtime, which would swamp the set-up it follows. *)
let setup_samples n =
  Array.init n (fun _ ->
      let pool, make_s = Util.time_s (fun () -> Fiber.make (config ())) in
      Fiber.shutdown pool;
      make_s)

type jobs = {
  lat_s : float array;  (** per job, seconds *)
  wall_s : float;  (** sum of job times *)
  wrong : int;
  words : float;  (** minor words allocated while the jobs ran *)
  stats : Fiber.subpool_stats list;
}

(* Run jobs in a fresh pool: [warm_s] of unmeasured jobs, then measured
   ones until [measure_s] has passed or [max_jobs] have run.  With
   [spans], every [trace_every]-th job is traced. *)
let jobs ?spans ?(trace_every = 1) ?(max_jobs = max_int) ~n ~warm_s ~measure_s () =
  let expect = sfib n in
  let pool = Fiber.make (config ()) in
  let lat = ref [] and count = ref 0 and wrong = ref 0 in
  let words = ref 0.0 and wall = ref 0 in
  let nm = Option.map names spans in
  Fiber.run pool (fun () ->
      let warm_end = Util.now_ns () + int_of_float (warm_s *. 1e9) in
      while Util.now_ns () < warm_end do
        ignore (pfib n)
      done;
      let w0 = Util.minor_words () in
      let deadline = Util.now_ns () + int_of_float (measure_s *. 1e9) in
      while !count < max_jobs && Util.now_ns () < deadline do
        let t0 = Util.now_ns () in
        let v =
          match (spans, nm) with
          | Some sp, Some nm when !count mod trace_every = 0 ->
              let job = Spans.enter sp ~name:nm.n_job ~parent:(-1) ~req:!count in
              let v = pfib_traced sp nm ~job ~req:!count n in
              Spans.leave sp job;
              v
          | _ -> pfib n
        in
        let d = Util.now_ns () - t0 in
        wall := !wall + d;
        lat := (float_of_int d *. 1e-9) :: !lat;
        if v <> expect then incr wrong;
        incr count
      done;
      words := Util.minor_words () -. w0);
  let stats = Fiber.stats pool in
  Fiber.shutdown pool;
  {
    lat_s = Array.of_list (List.rev !lat);
    wall_s = float_of_int !wall *. 1e-9;
    wrong = !wrong;
    words = !words;
    stats;
  }

(* Repetitions of fresh pools: throughput moves by up to 20% from one
   pool to the next in one process, so a run measures several. *)
let run ~tiny ~seconds ~spans =
  let n = job_n ~tiny in
  let setup = setup_samples 51 in
  let reps = if tiny then 1 else 9 in
  let warm_s = if tiny then 0.02 else 0.2 in
  let measure_s = if tiny then 0.1 else (seconds /. float_of_int reps) -. warm_s in
  let js = Array.init reps (fun _ -> jobs ?spans ~trace_every:32 ~n ~warm_s ~measure_s ()) in
  let lat_ms = Array.concat (Array.to_list (Array.map (fun j -> Array.map (fun s -> s *. 1e3) j.lat_s) js)) in
  let count = Array.length lat_ms in
  let per_job = float_of_int (spawns n) in
  let tput j = float_of_int (Array.length j.lat_s) *. per_job /. j.wall_s in
  let what = Printf.sprintf "fib(%d) jobs over %d pool(s)" n reps in
  let wrong = Array.fold_left (fun w j -> w + j.wrong) 0 js in
  let words = Array.fold_left (fun w j -> w +. j.words) 0.0 js in
  Array.iteri
    (fun i j ->
      Printf.printf "pool %d: %d jobs, %.0f tasks/s, job p50 %.3f ms\n" i (Array.length j.lat_s)
        (tput j) (Stat.median j.lat_s *. 1e3))
    js;
  {
    Report.metrics =
      [
        Report.of_reps "setup_s" "s" setup ~each:" of Fiber.make";
        Report.of_samples "p50_ms" "ms" ~p:0.5 ~what lat_ms;
        Report.of_samples "p99_ms" "ms" ~p:0.99 ~what lat_ms;
        Report.of_reps "throughput" "1/s" (Array.map tput js)
          ~each:" of spawn/await pairs per second of job time";
      ];
    outcome = { Report.attempted = count; failed = wrong };
    reps;
    op = "task";
    minor_words_per_op = words /. (float_of_int count *. per_job);
  }
