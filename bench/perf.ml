(* Perf-regression harness for the engine/runtime hot paths.

   Times the paths every experiment in the repro leans on — engine event
   dispatch, ULT spawn/yield, the two preemption round-trips
   (signal-yield and KLT-switching), usync ops, the fiber deque, and the
   fig4/fig6 fast presets — and emits a machine-readable JSON report
   (BENCH_core.json).  A compare mode diffs a fresh run against a
   committed baseline with a tolerance band, so `dune build @perf-smoke`
   fails when a tracked metric regresses.

     perf run   [--out FILE] [--baseline FILE] [--quick]
     perf compare --baseline FILE --current FILE [--tolerance T]
     perf check [--baseline FILE] [--tolerance T] [--quick]

   All simulated-runtime entries are deterministic in *virtual* time;
   what varies between machines is the wall clock per simulated event,
   which is exactly what this harness tracks.  See README.md
   ("Performance tracking") for the workflow. *)

open Desim
open Oskern
open Preempt_core

let wall = Unix.gettimeofday

(* [domains] is the number of *host* domains the entry exercises: 1 for
   every simulated-runtime path (the simulator is single-threaded
   regardless of how many cores it models) and >1 for the real fiber
   runtime's multi-domain entries, so the scaling gate below can pair
   d1/d4 figures. *)
type entry = { name : string; ops : float; wall_s : float; domains : int }

(* ------------------------------------------------------------------ *)
(* Benchmark bodies.  Each returns the number of "operations" it
   performed; the driver measures wall time around it. *)

(* Pure engine dispatch: self-rescheduling callback chains over a heap
   with background depth, plus the schedule-then-cancel churn the kernel
   slice/chunk machinery generates on every dispatch. *)
let engine_dispatch ~scale () =
  let eng = Engine.create () in
  (* Backlog far in the future: keeps the heap a few levels deep. *)
  for i = 0 to 255 do
    ignore (Engine.after eng (1e6 +. float_of_int i) (fun () -> ()))
  done;
  let chains = 8 in
  let per = 25_000 * scale in
  for c = 0 to chains - 1 do
    let count = ref 0 in
    let rec step () =
      incr count;
      let decoy = Engine.after eng 1.0 (fun () -> ()) in
      ignore (Engine.cancel decoy);
      if !count < per then ignore (Engine.after eng 1e-6 (fun () -> step ()))
    in
    ignore (Engine.after eng (1e-6 *. float_of_int c) (fun () -> step ()))
  done;
  Engine.run ~until:1e3 eng;
  float_of_int (Engine.events_processed eng)

(* ULT spawn + cooperative yield throughput on the simulated M:N
   runtime (the scheduler-loop fast path, no preemption). *)
let spawn_yield ~scale () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 4) in
  let rt = Runtime.create kernel ~n_workers:4 in
  let threads = 64 and yields = 400 * scale in
  for i = 0 to threads - 1 do
    ignore
      (Runtime.spawn rt ~home:(i mod 4) ~name:(Printf.sprintf "y%d" i) (fun () ->
           for _ = 1 to yields do
             Ult.yield ()
           done))
  done;
  Runtime.start rt;
  Engine.run eng;
  float_of_int (threads * yields)

(* Preemption round-trip: spinning preemptive threads under per-worker
   aligned timers; ops = preemption signals honored. *)
let preempt_roundtrip ~kind ~scale () =
  let workers = 8 in
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake workers) in
  let interval = 1e-3 in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval;
      suspend_mode = Config.Futex_suspend;
      use_local_klt_pool = true;
    }
  in
  let rt = Runtime.create ~config kernel ~n_workers:workers in
  let horizon = interval *. float_of_int (250 * scale) in
  for i = 0 to (2 * workers) - 1 do
    ignore
      (Runtime.spawn rt ~kind ~footprint:0.0 ~home:(i mod workers)
         ~name:(Printf.sprintf "spin%d" i)
         (fun () -> Ult.compute (horizon +. 1.0)))
  done;
  Runtime.start rt;
  Engine.run ~until:horizon eng;
  float_of_int (Runtime.preempt_signals rt)

(* Flight-recorder overhead on the dispatch-heavy preemption path.
   [enabled:false] is the shipped default — the recorder exists but
   every instrumentation site reduces to one boolean load; this is the
   same workload as preempt_klt_switch, so the pair (measured in the
   same process) isolates the recorder's disabled-path cost from
   machine speed.  [enabled:true] records every event into the rings
   (wrapping), i.e. the always-on recording cost. *)
let recorder_dispatch ~enabled ~scale () =
  let workers = 8 in
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake workers) in
  let interval = 1e-3 in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval;
      suspend_mode = Config.Futex_suspend;
      use_local_klt_pool = true;
      recorder_enabled = enabled;
    }
  in
  let rt = Runtime.create ~config kernel ~n_workers:workers in
  let horizon = interval *. float_of_int (250 * scale) in
  for i = 0 to (2 * workers) - 1 do
    ignore
      (Runtime.spawn rt ~kind:Types.Klt_switching ~footprint:0.0
         ~home:(i mod workers)
         ~name:(Printf.sprintf "spin%d" i)
         (fun () -> Ult.compute (horizon +. 1.0)))
  done;
  Runtime.start rt;
  Engine.run ~until:horizon eng;
  float_of_int (Runtime.preempt_signals rt)

(* User-level sync: mutex hand-offs and channel send/recv pairs. *)
let usync_ops ~scale () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 2) in
  let rt = Runtime.create kernel ~n_workers:2 in
  let rounds = 10_000 * scale in
  let m = Usync.Mutex.create rt in
  let ch = Usync.Channel.create rt in
  for i = 0 to 1 do
    ignore
      (Runtime.spawn rt ~home:i ~name:(Printf.sprintf "lk%d" i) (fun () ->
           for _ = 1 to rounds do
             Usync.Mutex.lock m;
             Ult.compute 1e-8;
             Usync.Mutex.unlock m
           done))
  done;
  ignore
    (Runtime.spawn rt ~home:0 ~name:"producer" (fun () ->
         for k = 1 to rounds do
           Usync.Channel.send ch k;
           if k mod 64 = 0 then Ult.yield ()
         done));
  ignore
    (Runtime.spawn rt ~home:1 ~name:"consumer" (fun () ->
         for _ = 1 to rounds do
           ignore (Usync.Channel.recv ch)
         done));
  Runtime.start rt;
  Engine.run eng;
  float_of_int (6 * rounds)

(* Contended-lock hand-off: four ULTs across two workers hammering one
   lock, comparing the Usync futex mutex against the Ulock algorithm
   ports (ticket, TTAS+backoff, MCS).  ops = acquire/release pairs, so
   ns/op is the full hand-off cost including parks and wakeups. *)
let lock_contended ~make ~scale () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 2) in
  let rt = Runtime.create kernel ~n_workers:2 in
  let rounds = 5_000 * scale in
  let lock, unlock = make rt in
  for i = 0 to 3 do
    ignore
      (Runtime.spawn rt ~home:(i mod 2)
         ~name:(Printf.sprintf "lk%d" i)
         (fun () ->
           for _ = 1 to rounds do
             lock ();
             Ult.compute 1e-8;
             unlock ()
           done))
  done;
  Runtime.start rt;
  Engine.run eng;
  float_of_int (4 * rounds)

let usync_lock rt =
  let m = Usync.Mutex.create rt in
  ((fun () -> Usync.Mutex.lock m), fun () -> Usync.Mutex.unlock m)

let ticket_lock rt =
  let t = Ulock.Ticket.create rt in
  ((fun () -> Ulock.Ticket.lock t), fun () -> Ulock.Ticket.unlock t)

let ttas_lock rt =
  let t = Ulock.Ttas.create rt in
  ((fun () -> Ulock.Ttas.lock t), fun () -> Ulock.Ttas.unlock t)

let mcs_lock rt =
  let t = Ulock.Mcs.create rt in
  ((fun () -> Ulock.Mcs.lock t), fun () -> Ulock.Mcs.unlock t)

(* The real (native-parallel) fiber runtime's deque, single-threaded:
   owner push/pop plus the steal path. *)
let fiber_deque_ops ~scale () =
  let d = Fiber.Deque.create () in
  let n = 200_000 * scale in
  for i = 1 to n do
    Fiber.Deque.push d i
  done;
  for _ = 1 to n / 2 do
    ignore (Fiber.Deque.pop d)
  done;
  for _ = 1 to n / 2 do
    ignore (Fiber.Deque.steal d)
  done;
  float_of_int (2 * n)

(* ------------------------------------------------------------------ *)
(* The real (native-parallel) fiber runtime, end to end, at a given
   host-domain count.  Pool construction and shutdown are inside the
   measured body: they are a constant few hundred microseconds and keep
   every rep independent. *)

(* Contended spawn/steal throughput: one root fiber fans out waves of
   trivial children from worker 0's deque; every other domain feeds off
   that one deque, so this is exactly the spawn -> steal path the
   lock-free deque and the targeted-wakeup protocol serve. *)
let fiber_spawn_steal ~domains ~scale () =
  let pool = Fiber.make (Fiber.Config.make ~domains ()) in
  let tasks = 50_000 * scale in
  Fiber.run pool (fun () ->
      let batch = 256 in
      let rem = ref tasks in
      while !rem > 0 do
        let k = Stdlib.min batch !rem in
        let ps = List.init k (fun _ -> Fiber.spawn (fun () -> ())) in
        List.iter Fiber.await ps;
        rem := !rem - k
      done);
  Fiber.shutdown pool;
  float_of_int tasks

(* Fork–join fan-out: a binary spawn tree over a summed range, the
   classic divide-and-conquer shape (steals happen near the root,
   owner-local LIFO pops near the leaves). *)
let fiber_forkjoin ~domains ~scale () =
  let pool = Fiber.make (Fiber.Config.make ~domains ()) in
  let n = 60_000 * scale in
  let cutoff = 128 in
  let total =
    Fiber.run pool (fun () ->
        let rec go lo hi =
          if hi - lo <= cutoff then begin
            let s = ref 0 in
            for i = lo to hi - 1 do
              s := !s + i
            done;
            !s
          end
          else begin
            let mid = (lo + hi) / 2 in
            let right = Fiber.spawn (fun () -> go mid hi) in
            let left = go lo mid in
            left + Fiber.await right
          end
        in
        go 0 n)
  in
  Fiber.shutdown pool;
  assert (total = n * (n - 1) / 2);
  float_of_int n

(* Yield ping-pong: two fibers alternating through the yield re-queue
   (push_front into the CAS-swapped segment) — the preemption
   descheduling path without a quantum. *)
let fiber_pingpong ~domains ~scale () =
  let pool = Fiber.make (Fiber.Config.make ~domains ()) in
  let yields = 40_000 * scale in
  Fiber.run pool (fun () ->
      let ps =
        List.init 2 (fun _ ->
            Fiber.spawn (fun () ->
                for _ = 1 to yields do
                  Fiber.yield ()
                done))
      in
      List.iter Fiber.await ps);
  Fiber.shutdown pool;
  float_of_int (2 * yields)

(* Preemption overhead with a 1 ms quantum: greedy fibers crossing a
   [check] safe point per iteration.  ops = iterations, so ns/op is the
   per-safe-point cost including the workers' clock reads and the
   preemption yields their quanta induce — the LibPreemptible-style
   "how much does preemptibility cost the hot loop" number. *)
let fiber_preempt ~domains ~scale () =
  let pool =
    Fiber.make (Fiber.Config.make ~domains ~preempt_interval:0.001 ())
  in
  let iters = 250_000 * scale in
  let fibers = 2 * domains in
  Fiber.run pool (fun () ->
      let ps =
        List.init fibers (fun _ ->
            Fiber.spawn (fun () ->
                for _ = 1 to iters do
                  Fiber.check ()
                done))
      in
      List.iter Fiber.await ps);
  Fiber.shutdown pool;
  float_of_int (fibers * iters)

(* Sub-pool isolation: a saturating compute backlog plus spawn-to-run
   latency probes, the paper's in-situ-analysis shape.  [flat] pushes
   both through one shared 4-worker pool, so every probe queues behind
   the backlog already scattered across the workers; [sharded] pins the
   backlog to a 3-worker "compute" sub-pool and the probes to a
   1-worker "analysis" sub-pool with overflow disabled, so probe
   latency never sees the backlog.  Each probe's spawn->first-run
   latency goes into a [Metrics.Hist]; ops = elapsed/p99, so the
   reported ns/op reads as the probe p99 itself (up to pool
   setup/teardown, identical in both variants).  The isolation gate
   below asserts the flat/sharded p99 ratio. *)
let pool_isolation ~sharded ~scale () =
  let domains = 4 in
  let pool =
    if sharded then
      Fiber.make
        (Fiber.Config.make ~domains
           ~subpools:
             [
               Fiber.Config.subpool ~name:"compute" ~workers:[ 0; 1; 2 ] ();
               Fiber.Config.subpool ~name:"analysis" ~workers:[ 3 ]
                 ~overflow:false ();
             ]
           ())
    else Fiber.make (Fiber.Config.make ~domains ())
  in
  let load_pool = if sharded then "compute" else "default" in
  let probe_pool = if sharded then "analysis" else "default" in
  let n_load = 800 * scale in
  let n_probes = 64 in
  let task_s = 50e-6 in
  (* Probes write disjoint slots; the histogram is filled afterwards so
     no Hist.add races across workers. *)
  let lat = Array.make n_probes 0.0 in
  let t0 = wall () in
  Fiber.run pool (fun () ->
      let loads =
        List.init n_load (fun _ ->
            Fiber.spawn ~pool:load_pool (fun () ->
                let deadline = wall () +. task_s in
                while wall () < deadline do
                  ()
                done))
      in
      let probes =
        List.init n_probes (fun i ->
            let t = wall () in
            Fiber.spawn ~pool:probe_pool (fun () -> lat.(i) <- wall () -. t))
      in
      List.iter Fiber.await probes;
      List.iter Fiber.await loads);
  let elapsed = wall () -. t0 in
  Fiber.shutdown pool;
  let h = Metrics.Hist.create () in
  Array.iter (Metrics.Hist.add h) lat;
  let p99 = Metrics.Hist.quantile h 99.0 in
  elapsed /. Stdlib.max 1e-9 p99

(* Open-loop serving latency at a gated overload point (docs/serving.md):
   the lib/serve injector at an offered rate above the 3 serving
   workers' capacity, fixed quantum vs the adaptive controller.  Like
   pool_isolation, ops = elapsed/p99 so the reported ns/op reads as the
   short-class sojourn p99 itself; the serve gate below asserts the
   fixed/adaptive ratio. *)
let serve_rate = 40_000.0

let serve_report ~adaptive ~scale =
  Serve.run
    {
      Serve.default with
      Serve.rate = serve_rate;
      duration = 0.15 *. float_of_int scale;
      domains = 4;
      adaptive;
    }

let serve_short_p99 ~adaptive ~scale =
  let rep = serve_report ~adaptive ~scale in
  rep.Serve.r_short.Serve.cr_p99

let serve_p99 ~adaptive ~scale () =
  let rep = serve_report ~adaptive ~scale in
  rep.Serve.r_elapsed
  /. Stdlib.max 1e-9 rep.Serve.r_short.Serve.cr_p99

(* Fast presets of the two figures whose sweeps dominate bench wall
   time; ops = 1, the metric is the preset's wall clock itself. *)
let fig4_fast () =
  ignore (Experiments.Fig4_interrupt.series ~fast:true ());
  1.0

let fig6_fast () =
  ignore (Experiments.Fig6_overhead.series_for Machine.skylake ~fast:true ());
  1.0

(* ------------------------------------------------------------------ *)
(* Driver. *)

let benchmarks ~quick =
  let scale = if quick then 1 else 2 in
  [
    ("engine_dispatch", 1, engine_dispatch ~scale);
    ("spawn_yield", 1, spawn_yield ~scale);
    ("preempt_signal_yield", 1, preempt_roundtrip ~kind:Types.Signal_yield ~scale);
    ("preempt_klt_switch", 1, preempt_roundtrip ~kind:Types.Klt_switching ~scale);
    ("dispatch_recorder_off", 1, recorder_dispatch ~enabled:false ~scale);
    ("dispatch_recorder_on", 1, recorder_dispatch ~enabled:true ~scale);
    ("usync_ops", 1, usync_ops ~scale);
    ("lock_contended_usync", 1, lock_contended ~make:usync_lock ~scale);
    ("lock_contended_ticket", 1, lock_contended ~make:ticket_lock ~scale);
    ("lock_contended_ttas", 1, lock_contended ~make:ttas_lock ~scale);
    ("lock_contended_mcs", 1, lock_contended ~make:mcs_lock ~scale);
    ("fiber_deque_ops", 1, fiber_deque_ops ~scale);
    ("fiber_spawn_steal_d1", 1, fiber_spawn_steal ~domains:1 ~scale);
    ("fiber_spawn_steal_d2", 2, fiber_spawn_steal ~domains:2 ~scale);
    ("fiber_spawn_steal_d4", 4, fiber_spawn_steal ~domains:4 ~scale);
    ("fiber_forkjoin_d4", 4, fiber_forkjoin ~domains:4 ~scale);
    ("fiber_pingpong_d2", 2, fiber_pingpong ~domains:2 ~scale);
    ("fiber_preempt_d1", 1, fiber_preempt ~domains:1 ~scale);
    ("fiber_preempt_d2", 2, fiber_preempt ~domains:2 ~scale);
    ("fiber_preempt_d4", 4, fiber_preempt ~domains:4 ~scale);
    ("fiber_preempt_d8", 8, fiber_preempt ~domains:8 ~scale);
    ("pool_isolation_flat", 4, pool_isolation ~sharded:false ~scale);
    ("pool_isolation_sharded", 4, pool_isolation ~sharded:true ~scale);
    ("serve_p99_fixed", 4, serve_p99 ~adaptive:false ~scale);
    ("serve_p99_adaptive", 4, serve_p99 ~adaptive:true ~scale);
    ("fig4_fast_preset", 1, fig4_fast);
    ("fig6_fast_preset", 1, fig6_fast);
  ]

let measure ~reps (name, domains, f) =
  (* Warm-up run, then best-of-[reps]: minimizes GC/scheduling noise
     while keeping the harness fast enough for a smoke alias. *)
  ignore (f ());
  let best = ref infinity in
  let ops = ref 0.0 in
  for _ = 1 to reps do
    let t0 = wall () in
    ops := f ();
    let dt = wall () -. t0 in
    if dt < !best then best := dt
  done;
  Printf.printf "  %-22s %10.0f ops  %8.3f s  %10.1f ns/op  (d%d)\n%!" name !ops
    !best
    (!best /. !ops *. 1e9)
    domains;
  { name; ops = !ops; wall_s = !best; domains }

(* ------------------------------------------------------------------ *)
(* JSON in and out. *)

let json_of_entries ~preset ~baseline entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"preempt-perf/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"preset\": %S,\n" preset);
  Buffer.add_string buf "  \"entries\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i e ->
      let base = List.assoc_opt e.name baseline in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": %S, \"domains\": %d, \"ops\": %.0f, \"wall_s\": %.6f, \
            \"ns_per_op\": %.2f"
           e.name e.domains e.ops e.wall_s
           (e.wall_s /. e.ops *. 1e9));
      (match base with
      | Some b ->
          Buffer.add_string buf
            (Printf.sprintf
               ",\n      \"baseline_wall_s\": %.6f, \"baseline_ns_per_op\": %.2f, \
                \"improvement_pct\": %.1f"
               b.wall_s
               (b.wall_s /. b.ops *. 1e9)
               ((b.wall_s -. e.wall_s) /. b.wall_s *. 100.0))
      | None -> ());
      Buffer.add_string buf (if i = n - 1 then " }\n" else " },\n"))
    entries;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let load_entries path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let open Experiments.Chrome_trace.Json in
  match parse s with
  | Error msg -> failwith (Printf.sprintf "%s: JSON parse error: %s" path msg)
  | Ok j -> (
      match member "entries" j with
      | Some (Arr es) ->
          List.filter_map
            (fun e ->
              match (member "name" e, member "ops" e, member "wall_s" e) with
              | Some (Str name), Some (Num ops), Some (Num wall_s) ->
                  let domains =
                    match member "domains" e with
                    | Some (Num d) -> int_of_float d
                    | _ -> 1
                  in
                  Some (name, { name; ops; wall_s; domains })
              | _ -> None)
            es
      | _ -> failwith (Printf.sprintf "%s: no \"entries\" array" path))

(* ------------------------------------------------------------------ *)
(* Compare: current vs baseline within a tolerance band. *)

(* Compare ns/op, not raw wall time: the quick preset runs fewer ops
   than the default preset the committed baseline was captured with, so
   per-op cost is the only scale-invariant metric. *)
let compare_entries ~tolerance ~baseline ~current =
  let regressions = ref [] in
  let ns_per_op e = e.wall_s /. e.ops *. 1e9 in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf "%-22s %14s %14s %9s\n" "entry" "base ns/op" "cur ns/op" "delta";
  List.iter
    (fun (name, cur) ->
      match List.assoc_opt name baseline with
      | None -> Printf.printf "%-22s %14s %12.2f %9s\n" name "(new)" (ns_per_op cur) "-"
      | Some b ->
          let delta = (ns_per_op cur -. ns_per_op b) /. ns_per_op b in
          let flag =
            if delta > tolerance then
              if cur.domains > host_cores then
                (* An entry running more domains than the host has cores
                   measures the OS scheduler, not us: record it, don't
                   gate on it.  (On a big enough host it gates.) *)
                "  (oversubscribed; informational)"
              else if
                String.starts_with ~prefix:"pool_isolation" name
                || String.starts_with ~prefix:"serve_p99" name
              then
                (* Absolute probe p99 swings with host load; the
                   flat/sharded (resp. fixed/adaptive) *ratio* is the
                   tracked claim and the gates below assert it. *)
                "  (latency probe; informational)"
              else begin
                regressions := name :: !regressions;
                "  REGRESSED"
              end
            else ""
          in
          Printf.printf "%-22s %14.2f %14.2f %+8.1f%%%s\n" name (ns_per_op b) (ns_per_op cur)
            (delta *. 100.0) flag)
    current;
  match !regressions with
  | [] ->
      Printf.printf "perf-smoke: OK (tolerance %.0f%%)\n" (tolerance *. 100.0);
      true
  | names ->
      Printf.printf "perf-smoke: FAIL — %s regressed beyond %.0f%%\n"
        (String.concat ", " (List.rev names))
        (tolerance *. 100.0);
      false

(* ------------------------------------------------------------------ *)
(* Recorder disabled-path budget.

   dispatch_recorder_off runs the exact preempt_klt_switch workload, so
   comparing the two within one run isolates what the recorder's
   presence costs when disabled (it must reduce to one boolean load per
   instrumentation site).  Unlike the baseline comparison this pair is
   machine-independent — same process, same scale, correlated noise —
   so it gets a tight 2% budget where the cross-machine band is wide. *)

let recorder_off_budget = 0.02

let recorder_budget_check entries =
  let ns_per_op name =
    List.find_opt (fun e -> e.name = name) entries
    |> Option.map (fun e -> e.wall_s /. e.ops *. 1e9)
  in
  match
    ( ns_per_op "preempt_klt_switch",
      ns_per_op "dispatch_recorder_off",
      ns_per_op "dispatch_recorder_on" )
  with
  | Some plain, Some off, Some on ->
      let delta = (off -. plain) /. plain in
      Printf.printf
        "recorder disabled-path cost: %+.1f%% vs plain dispatch (budget \
         %.0f%%); recording: %+.1f%%\n"
        (delta *. 100.0)
        (recorder_off_budget *. 100.0)
        ((on -. plain) /. plain *. 100.0);
      if delta > recorder_off_budget then begin
        Printf.printf
          "perf-smoke: FAIL — disabled flight recorder regressed dispatch \
           beyond %.0f%%\n"
          (recorder_off_budget *. 100.0);
        false
      end
      else true
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Multi-domain scaling gate.

   The contended spawn/steal pair (d4 vs d1) is measured in the same
   process, so like the recorder budget it is machine-independent — but
   it is only *meaningful* when the host actually has 4 cores to run 4
   domains on.  On a smaller host (CI containers are routinely pinned to
   1–2 cores) 4 oversubscribed domains cannot beat 1, so the gate
   reports the ratio and skips the assertion rather than failing on
   hardware the claim was never about. *)

let scaling_min = 2.0

(* One fresh back-to-back d1/d4 sample, for the gate's single retry. *)
let scaling_remeasure () =
  let sample domains =
    let t0 = wall () in
    let ops = fiber_spawn_steal ~domains ~scale:1 () in
    ops /. (wall () -. t0)
  in
  let t1 = sample 1 in
  sample 4 /. Stdlib.max 1e-9 t1

let scaling_check entries =
  let tput name =
    List.find_opt (fun e -> e.name = name) entries
    |> Option.map (fun e -> e.ops /. e.wall_s)
  in
  match (tput "fiber_spawn_steal_d1", tput "fiber_spawn_steal_d4") with
  | Some t1, Some t4 ->
      Experiments.Gate.report ~name:"fiber spawn/steal scaling (d4 vs d1)"
        ~minimum:scaling_min
        (Experiments.Gate.ratio_gate ~required_cores:4 ~minimum:scaling_min
           ~remeasure:scaling_remeasure (t4 /. t1))
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Spawn/steal contention gate.

   The scaling gate above asserts throughput; this one bounds the
   *per-op* price of contention: with 4 domains hammering one deque,
   a spawn/steal op may cost at most [contention_max] times its
   single-domain cost.  Batched steals are what keep this bounded —
   a thief amortizes one raid over half the victim's run instead of
   paying a CAS per task.  The gate ratio is (max * d1) / d4 ns/op,
   so >= 1.0 means d4 stayed inside the budget and the printed figure
   reads as headroom.  Same-process and machine-independent like the
   scaling gate, and like it the claim needs 4 real cores — on fewer,
   oversubscribed domains serialize and the per-op cost measures the
   OS scheduler, so the gate prints the ratio and skips. *)

let contention_max = 3.0

let contention_remeasure () =
  let sample domains =
    let t0 = wall () in
    let ops = fiber_spawn_steal ~domains ~scale:1 () in
    (wall () -. t0) /. ops *. 1e9
  in
  let d1 = sample 1 in
  let d4 = sample 4 in
  contention_max *. d1 /. Stdlib.max 1e-9 d4

let contention_check entries =
  let ns_per_op name =
    List.find_opt (fun e -> e.name = name) entries
    |> Option.map (fun e -> e.wall_s /. e.ops *. 1e9)
  in
  match (ns_per_op "fiber_spawn_steal_d1", ns_per_op "fiber_spawn_steal_d4") with
  | Some d1, Some d4 ->
      Experiments.Gate.report
        ~name:"fiber spawn/steal contention (3x d1 vs d4 ns/op)" ~minimum:1.0
        (Experiments.Gate.ratio_gate ~required_cores:4 ~minimum:1.0
           ~remeasure:contention_remeasure
           (contention_max *. d1 /. Stdlib.max 1e-9 d4))
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Sub-pool isolation gate.

   The pool_isolation pair reports probe p99 as its ns/op, so the
   flat/sharded ns-per-op ratio *is* the isolation factor: how much
   spawn-to-run latency a dedicated, overflow-fenced analysis sub-pool
   buys over sharing one pool with the compute backlog.  Like the
   scaling gate it is same-process and machine-independent, and like it
   the claim needs 4 real cores — on a smaller host the "idle" analysis
   worker time-slices with the backlog it is supposed to be isolated
   from, so the gate prints the ratio and skips the assertion. *)

let isolation_min = 3.0

(* Unlike core count, host load is transient: on a busy machine the
   "dedicated" analysis core time-slices with whatever else is running
   and the ratio can legitimately collapse for one sample.  A fresh
   back-to-back re-measure of just the pair costs ~a second and
   separates a loaded-host blip from a real isolation regression. *)
let isolation_remeasure () =
  let sample sharded =
    let t0 = wall () in
    let ops = pool_isolation ~sharded ~scale:1 () in
    (wall () -. t0) /. ops *. 1e9
  in
  let flat = sample false in
  let sharded = sample true in
  flat /. Stdlib.max 1e-9 sharded

let isolation_check entries =
  let ns_per_op name =
    List.find_opt (fun e -> e.name = name) entries
    |> Option.map (fun e -> e.wall_s /. e.ops *. 1e9)
  in
  match
    (ns_per_op "pool_isolation_flat", ns_per_op "pool_isolation_sharded")
  with
  | Some flat, Some sharded ->
      Experiments.Gate.report
        ~name:"sub-pool isolation (flat/sharded probe p99)"
        ~minimum:isolation_min
        (Experiments.Gate.ratio_gate ~required_cores:4 ~minimum:isolation_min
           ~remeasure:isolation_remeasure
           (flat /. Stdlib.max 1e-9 sharded))
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Serve overload gate.

   The serve_p99 pair reports the short-class sojourn p99 as its ns/op,
   so the fixed/adaptive ns-per-op ratio is the tail win the adaptive
   quantum controller buys at the gated overload point: >= 1.0 means
   adaptive never loses to the fixed base quantum.  Same-process and
   machine-independent like the other gates; the open-loop claim needs
   4 real cores (on fewer, the injector time-slices with the servers
   and the offered rate itself collapses), so the gate skips below
   that with the ratio printed. *)

let serve_min = 1.0

let serve_remeasure () =
  let fixed = serve_short_p99 ~adaptive:false ~scale:1 in
  let adaptive = serve_short_p99 ~adaptive:true ~scale:1 in
  fixed /. Stdlib.max 1e-9 adaptive

let serve_check entries =
  let ns_per_op name =
    List.find_opt (fun e -> e.name = name) entries
    |> Option.map (fun e -> e.wall_s /. e.ops *. 1e9)
  in
  match (ns_per_op "serve_p99_fixed", ns_per_op "serve_p99_adaptive") with
  | Some fixed, Some adaptive ->
      Experiments.Gate.report
        ~name:"serve overload p99 (fixed vs adaptive quantum)"
        ~minimum:serve_min
        (Experiments.Gate.ratio_gate ~required_cores:4 ~minimum:serve_min
           ~remeasure:serve_remeasure
           (fixed /. Stdlib.max 1e-9 adaptive))
  | _ -> true

(* ------------------------------------------------------------------ *)
(* CLI. *)

let usage () =
  print_endline
    "usage: perf run [--out FILE] [--baseline FILE] [--quick]\n\
    \       perf compare --baseline FILE --current FILE [--tolerance T]\n\
    \       perf check [--baseline FILE] [--tolerance T] [--quick]";
  exit 2

let arg_value args key =
  let rec go = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args ->
      let quick = List.mem "--quick" args in
      let out = Option.value ~default:"BENCH_core.json" (arg_value args "--out") in
      let baseline =
        match arg_value args "--baseline" with Some p -> load_entries p | None -> []
      in
      let selected =
        match arg_value args "--only" with
        | None -> benchmarks ~quick
        | Some names ->
            let wanted = String.split_on_char ',' names in
            List.filter (fun (n, _, _) -> List.mem n wanted) (benchmarks ~quick)
      in
      Printf.printf "perf run (%s preset)\n" (if quick then "quick" else "default");
      let entries = List.map (measure ~reps:(if quick then 1 else 3)) selected in
      let json =
        json_of_entries ~preset:(if quick then "quick" else "default") ~baseline entries
      in
      let oc = open_out out in
      output_string oc json;
      close_out oc;
      Printf.printf "wrote %s\n" out
  | _ :: "compare" :: args -> (
      match (arg_value args "--baseline", arg_value args "--current") with
      | Some b, Some c ->
          let tolerance =
            Option.value ~default:0.35
              (Option.bind (arg_value args "--tolerance") float_of_string_opt)
          in
          if not (compare_entries ~tolerance ~baseline:(load_entries b) ~current:(load_entries c))
          then exit 1
      | _ -> usage ())
  | _ :: "check" :: args ->
      let quick = true in
      let baseline_path = Option.value ~default:"BENCH_core.json" (arg_value args "--baseline") in
      let tolerance =
        Option.value ~default:0.5
          (Option.bind (arg_value args "--tolerance") float_of_string_opt)
      in
      Printf.printf "perf check vs %s\n" baseline_path;
      let baseline = load_entries baseline_path in
      let entries = List.map (measure ~reps:2) (benchmarks ~quick) in
      let current = List.map (fun e -> (e.name, e)) entries in
      let baseline_ok = compare_entries ~tolerance ~baseline ~current in
      let budget_ok = recorder_budget_check entries in
      let scaling_ok = scaling_check entries in
      let contention_ok = contention_check entries in
      let isolation_ok = isolation_check entries in
      let serve_ok = serve_check entries in
      if
        not
          (baseline_ok && budget_ok && scaling_ok
         && contention_ok && isolation_ok && serve_ok)
      then exit 1
  | _ -> usage ()
