(* preempt_spin: the paper's claim in its purest form.  Four greedy
   fibers spin a fixed integer kernel with a [Fiber.check] safe point
   per step, on a 2-domain pool with a 1 ms preemption ticker, so both
   workers are always busy.  The main fiber spawns an open-loop probe
   due every 2 ms; a probe's latency runs from its due time to its first
   instruction.  It shows how quickly preemption lets new work run on
   busy workers, and what the ticker costs the greedy work.

   Each worker is its own sub-pool, without overflow, and holds two
   greedy fibers; the main fiber and its probes live on worker 0.
   Pinning keeps both workers busy on every run: left to work stealing,
   the greedy fibers sometimes all land on one worker, the main fiber
   has the other to itself, and no probe ever waits. *)

let interval = 1e-3

let probe_gap_ns = 2_000_000

let greedy = 4

(* One kernel step: 16 dependent integer operations. *)
let kernel x =
  let x = ref x in
  for _ = 1 to 16 do
    x := ((!x * 25214903917) + 11) land 0xFFFF_FFFF_FFFF
  done;
  !x

let pools = [| "w0"; "w1" |]

let config () =
  Fiber.Config.make ~domains:2 ~preempt_interval:interval
    ~subpools:
      (List.init 2 (fun w -> Fiber.Config.subpool ~name:pools.(w) ~workers:[ w ] ~overflow:false ()))
    ()

type rep = {
  lat_s : float array;  (** per probe; NaN for a probe that never ran *)
  steps : int;  (** kernel steps the greedy fibers completed *)
  busy_s : float;  (** how long the greedy fibers ran *)
  preemptions : int;
}

type names = { n_rep : int; n_greedy : int; n_check : int; n_spawn : int; n_wait : int }

let names sp =
  {
    n_rep = Spans.intern sp "rep";
    n_greedy = Spans.intern sp "greedy";
    n_check = Spans.intern sp "Fiber.check(preempted)";
    n_spawn = Spans.intern sp "Fiber.spawn";
    n_wait = Spans.intern sp "probe.wait";
  }

let rep ?spans ~rep_s () =
  let pool = Fiber.make (config ()) in
  let n = Stdlib.max 1 (int_of_float (rep_s *. 1e9) / probe_gap_ns) in
  let lat = Array.make n Float.nan in
  let stop = Atomic.make false in
  let steps = Array.make greedy 0 and sink = Array.make greedy 0 in
  let busy = ref 0 in
  let nm = Option.map names spans in
  let traced = Option.is_some spans in
  let enter name parent req =
    match (spans, nm) with
    | Some sp, Some nm -> Spans.enter sp ~name:(name nm) ~parent ~req
    | _ -> -1
  in
  let leave id = match spans with Some sp -> Spans.leave sp id | None -> () in
  Fiber.run pool (fun () ->
      let root = enter (fun nm -> nm.n_rep) (-1) (-1) in
      let t0 = Util.now_ns () in
      let spin g () =
        let span = enter (fun nm -> nm.n_greedy) root g in
        let x = ref g and k = ref 0 in
        while not (Atomic.get stop) do
          x := kernel !x;
          incr k;
          if traced && Fiber.preempt_pending () then begin
            let c = enter (fun nm -> nm.n_check) span g in
            Fiber.check ();
            leave c
          end
          else Fiber.check ()
        done;
        steps.(g) <- !k;
        sink.(g) <- !x;
        leave span
      in
      let gs = List.init greedy (fun g -> Fiber.spawn ~pool:pools.(g mod 2) (spin g)) in
      let probes =
        Array.init n (fun i ->
            let due = t0 + ((i + 1) * probe_gap_ns) in
            while Util.now_ns () < due do
              Fiber.yield ()
            done;
            let s = enter (fun nm -> nm.n_spawn) root i in
            let p =
              Fiber.spawn (fun () ->
                  let now = Util.now_ns () in
                  lat.(i) <- float_of_int (now - due) *. 1e-9;
                  match (spans, nm) with
                  | Some sp, Some nm ->
                      Spans.leave sp
                        (Spans.enter_at sp ~at:due ~name:nm.n_wait ~parent:root ~req:i)
                  | _ -> ())
            in
            leave s;
            p)
      in
      Atomic.set stop true;
      busy := Util.now_ns () - t0;
      Array.iter Fiber.await probes;
      List.iter Fiber.await gs;
      leave root);
  let preemptions = Fiber.preemptions pool in
  Fiber.shutdown pool;
  ignore (Sys.opaque_identity sink);
  {
    lat_s = lat;
    steps = Array.fold_left ( + ) 0 steps;
    busy_s = float_of_int !busy *. 1e-9;
    preemptions;
  }

(* Set-up cost: building the pool, [n] times (tear-down left out, as
   in [Forkjoin.setup_samples]). *)
let setup_samples n =
  Array.init n (fun _ ->
      let pool, make_s = Util.time_s (fun () -> Fiber.make (config ())) in
      Fiber.shutdown pool;
      make_s)

(* Preemptions over the ticks the ticker should have delivered to the
   two workers. *)
let preempt_ratio r = float_of_int r.preemptions /. (2.0 *. r.busy_s /. interval)

let ran r = Array.fold_left (fun n v -> if Float.is_nan v then n else n + 1) 0 r.lat_s

let run ~tiny ~seconds ~spans =
  let setup = setup_samples 51 in
  ignore (rep ~rep_s:(if tiny then 0.05 else 0.5) ());
  let reps, rep_s =
    if tiny then (1, 0.2)
    else
      let k = Stdlib.max 1 (int_of_float (seconds /. 4.0)) in
      (k, seconds /. float_of_int k)
  in
  let w0 = Util.minor_words () in
  let rs = Array.init reps (fun _ -> rep ?spans ~rep_s ()) in
  let words = Util.minor_words () -. w0 in
  let pct p r =
    let ran = Array.to_seq r.lat_s |> Seq.filter (fun v -> not (Float.is_nan v)) |> Array.of_seq in
    Stat.quantile ran p *. 1e3
  in
  let probes = Array.length rs.(0).lat_s in
  let each p =
    Printf.sprintf " of p%g over %d probes (%d beyond)" (p *. 100.0) probes
      (probes - int_of_float (Float.ceil (p *. float_of_int probes)))
  in
  Array.iteri
    (fun i r ->
      Printf.printf
        "rep %d: %d/%d probes ran, p50 %.3f ms, p99 %.3f ms, %d preemptions in %.2f s \
         (ratio %.3f), %.2f ns per kernel step per worker\n"
        i (ran r) (Array.length r.lat_s) (pct 0.5 r) (pct 0.99 r) r.preemptions r.busy_s
        (preempt_ratio r)
        (2.0 *. r.busy_s *. 1e9 /. float_of_int (Stdlib.max 1 r.steps)))
    rs;
  let attempted = Array.fold_left (fun n r -> n + Array.length r.lat_s) 0 rs in
  let ran_total = Array.fold_left (fun n r -> n + ran r) 0 rs in
  {
    Report.metrics =
      [
        Report.of_reps "setup_s" "s" setup ~each:" of Fiber.make";
        Report.of_reps "p50_ms" "ms" (Array.map (pct 0.5) rs) ~each:(each 0.5);
        Report.of_reps "p99_ms" "ms" (Array.map (pct 0.99) rs) ~each:(each 0.99);
        Report.of_reps "throughput" "1/s"
          (Array.map (fun r -> float_of_int r.steps /. r.busy_s) rs)
          ~each:" of greedy kernel steps per second, both workers";
      ];
    outcome = { Report.attempted; failed = attempted - ran_total };
    reps;
    op = "probe";
    minor_words_per_op = words /. float_of_int attempted;
  }
