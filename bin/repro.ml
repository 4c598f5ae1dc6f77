(* Command-line front end: regenerate any single experiment.

     repro fig4|fig6|table1|fig7|fig8|fig9|all [--full]
                 [--metrics] [--chrome-trace FILE]
     repro env

   --metrics prints the runtime's observability counters and latency
   histograms (p50/p99 signal-to-switch etc.) for the instrumented run;
   --chrome-trace FILE writes a Chrome trace_events JSON of the same run,
   loadable in chrome://tracing or ui.perfetto.dev.  Both are honored by
   the experiments that run the M:N runtime through the observability
   hooks (fig4, table1); see docs/observability.md. *)

open Cmdliner

let fast_t =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Run the paper-scale sweep (slower).")
  in
  Term.(const not $ full)

let obs_t =
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Record and print runtime metrics (per-worker counters, latency \
             histograms with p50/p99) for the instrumented run.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_events JSON file of the instrumented run to \
             $(docv); load it in chrome://tracing or ui.perfetto.dev.")
  in
  Term.(const (fun m c -> (m, c)) $ metrics $ chrome)

let run_exp name f =
  let doc = Printf.sprintf "Regenerate %s of the paper." name in
  let term =
    Term.(
      const (fun fast (m, c) ->
          Experiments.Exputil.Obs.metrics := m;
          Experiments.Exputil.Obs.chrome_trace := c;
          f ~fast ();
          if m || c <> None then Experiments.Exputil.Obs.report ())
      $ fast_t $ obs_t)
  in
  Cmd.v (Cmd.info (String.lowercase_ascii (String.map (function ' ' -> '_' | c -> c) name)) ~doc) term

let fig4 = run_exp "fig4" (fun ~fast () -> ignore (Experiments.Fig4_interrupt.run ~fast ()))

let fig6 = run_exp "fig6" (fun ~fast () -> ignore (Experiments.Fig6_overhead.run ~fast ()))

let table1 =
  run_exp "table1" (fun ~fast () -> ignore (Experiments.Table1_preempt_cost.run ~fast ()))

let fig7 = run_exp "fig7" (fun ~fast () -> ignore (Experiments.Fig7_cholesky.run ~fast ()))

let fig8 = run_exp "fig8" (fun ~fast () -> ignore (Experiments.Fig8_packing.run ~fast ()))

let fig9 = run_exp "fig9" (fun ~fast () -> ignore (Experiments.Fig9_insitu.run ~fast ()))

let sec351 =
  run_exp "sec351" (fun ~fast () -> ignore (Experiments.Sec351_syscalls.run ~fast ()))

let all =
  run_exp "all" (fun ~fast () ->
      ignore (Experiments.Fig4_interrupt.run ~fast ());
      ignore (Experiments.Fig6_overhead.run ~fast ());
      ignore (Experiments.Table1_preempt_cost.run ~fast ());
      ignore (Experiments.Fig7_cholesky.run ~fast ());
      ignore (Experiments.Fig8_packing.run ~fast ());
      ignore (Experiments.Fig9_insitu.run ~fast ());
      ignore (Experiments.Sec351_syscalls.run ~fast ()))

(* ------------------------------------------------------------------ *)
(* repro observe — flight-recorder report (docs/observability.md)      *)
(* ------------------------------------------------------------------ *)

let observe_main json chrome dump load smoke =
  let fail msg =
    prerr_endline ("repro observe: " ^ msg);
    exit 1
  in
  let report, spawned =
    match load with
    | Some path -> (
        match Preempt_core.Recorder.load ~path with
        | Ok d -> (Experiments.Observe.of_dump d, [])
        | Error e -> fail (Printf.sprintf "cannot load %s: %s" path e))
    | None ->
        let rt, uids = Experiments.Observe.run_workload () in
        (match dump with
        | Some path ->
            Preempt_core.Runtime.save_flight rt ~path;
            Printf.eprintf "flight record written to %s\n%!" path
        | None -> ());
        (Experiments.Observe.of_runtime rt, uids)
  in
  (match chrome with
  | Some path ->
      Experiments.Chrome_trace.write ~path
        (Experiments.Chrome_trace.of_flight
           report.Experiments.Observe.r_events);
      Printf.eprintf "chrome trace written to %s\n%!" path
  | None -> ());
  if json then print_string (Experiments.Observe.to_json report)
  else Experiments.Observe.print_text report;
  if smoke then begin
    if load <> None then fail "--smoke needs a live run, not --load";
    match Experiments.Observe.smoke ~spawned report with
    | Ok () -> Printf.printf "obs-smoke: ok\n%!"
    | Error msg -> fail ("smoke check failed: " ^ msg)
  end

let observe =
  let doc =
    "Run a preemption-heavy demo workload with the flight recorder on and \
     report reconstructed ULT lifecycles, per-stage preemption-latency \
     attribution and detected anomalies; or render a saved binary dump."
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write the flight record as Chrome trace_events JSON to $(docv) \
             (one lane per core, one lifecycle lane per ULT, and kernel and \
             preemption event lanes).")
  in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"FILE"
          ~doc:"Save the run's binary flight record to $(docv).")
  in
  let load =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:
            "Skip the demo run; decode and report the binary flight record \
             in $(docv) (e.g. a dump left by a $(b,repro check) violation).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Assert the record is sound: non-empty lifecycle per spawned \
             ULT, attribution chains matching the sig_to_switch histogram \
             within one bucket, valid Chrome JSON.  Non-zero exit on \
             failure (the $(b,@obs-smoke) alias).")
  in
  Cmd.v (Cmd.info "observe" ~doc)
    Term.(const observe_main $ json $ chrome $ dump $ load $ smoke)

(* ------------------------------------------------------------------ *)
(* repro serve — open-loop serving workload (lib/serve)                *)
(* ------------------------------------------------------------------ *)

let serve_main rate duration mix arrival burst_period burst_on seed domains
    preempt fixed quantum_min quantum_max json chrome dump top top_json
    top_period =
  let fail msg =
    prerr_endline ("repro serve: " ^ msg);
    exit 1
  in
  let arrival =
    match arrival with
    | "poisson" -> Serve.Poisson
    | "bursty" ->
        Serve.Bursty { period = burst_period; on_frac = burst_on }
    | s -> fail (Printf.sprintf "unknown arrival %S (want poisson or bursty)" s)
  in
  let d = Serve.default in
  let cfg =
    {
      d with
      Serve.rate;
      duration;
      long_frac = mix;
      arrival;
      seed;
      domains = Option.value domains ~default:d.Serve.domains;
      preempt_interval =
        (match preempt with Some i -> Some i | None -> d.Serve.preempt_interval);
      adaptive = not fixed;
      quantum_min;
      quantum_max;
      recorder = chrome <> None || dump <> None;
    }
  in
  (try Serve.validate cfg with Invalid_argument m -> fail m);
  (* The live view emits its final frame at drain time, before the
     post-run report prints, so the two don't interleave. *)
  let on_pool =
    if top || top_json then
      Some
        (fun pool rq ->
          Top.attach ~period:top_period
            ~mode:(if top_json then Top.Jsonl else Top.Text)
            pool rq)
    else None
  in
  let rep = Serve.run ?dump ?on_pool cfg in
  (match dump with
  | Some path -> Printf.eprintf "flight record written to %s\n%!" path
  | None -> ());
  (match chrome with
  | Some path ->
      Experiments.Chrome_trace.write ~path
        (Experiments.Chrome_trace.of_flight rep.Serve.r_flight);
      Printf.eprintf "chrome trace written to %s\n%!" path
  | None -> ());
  if json then print_string (Serve.to_json rep) else Serve.print_text rep

let serve =
  let doc =
    "Drive the fiber runtime with an open-loop serving workload (seeded \
     Poisson or bursty arrivals at a fixed offered rate, short/long request \
     mix) and report per-class sojourn p50/p99/p99.9; adaptive per-worker \
     preemption quanta by default ($(b,--fixed) pins the base interval).  \
     See docs/serving.md."
  in
  let rate =
    Arg.(
      value & opt float Serve.default.Serve.rate
      & info [ "rate" ] ~docv:"REQ_PER_S"
          ~doc:
            "Offered arrival rate in requests/second; pick one above the \
             pool's service capacity to study overload.")
  in
  let duration =
    Arg.(
      value & opt float Serve.default.Serve.duration
      & info [ "duration" ] ~docv:"S" ~doc:"Injection horizon in seconds.")
  in
  let mix =
    Arg.(
      value & opt float Serve.default.Serve.long_frac
      & info [ "mix" ] ~docv:"FRAC"
          ~doc:
            "Fraction of requests in the long service class (the rest are \
             short).")
  in
  let arrival =
    Arg.(
      value & opt string "poisson"
      & info [ "arrival" ] ~docv:"KIND"
          ~doc:"Arrival process: $(b,poisson) or $(b,bursty) (on/off).")
  in
  let burst_period =
    Arg.(
      value & opt float 0.1
      & info [ "burst-period" ] ~docv:"S"
          ~doc:"Bursty arrivals: on/off cycle length in seconds.")
  in
  let burst_on =
    Arg.(
      value & opt float 0.25
      & info [ "burst-on" ] ~docv:"FRAC"
          ~doc:
            "Bursty arrivals: fraction of each period carrying traffic (at \
             rate / $(docv)).")
  in
  let seed =
    Arg.(
      value & opt int Serve.default.Serve.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Arrival-schedule seed (same seed = same schedule).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Pool size incl. the injector worker (default: available cores).")
  in
  let preempt =
    Arg.(
      value
      & opt (some float) None
      & info [ "preempt" ] ~docv:"S"
          ~doc:"Base preemption interval in seconds (default 2 ms).")
  in
  let fixed =
    Arg.(
      value & flag
      & info [ "fixed" ]
          ~doc:
            "Keep the preemption quantum pinned at the base interval instead \
             of letting the $(b,Quantum) controller adapt it to queue depth.")
  in
  let quantum_min =
    Arg.(
      value
      & opt (some float) None
      & info [ "quantum-min" ] ~docv:"S"
          ~doc:"Adaptive floor in seconds (default: base / 8).")
  in
  let quantum_max =
    Arg.(
      value
      & opt (some float) None
      & info [ "quantum-max" ] ~docv:"S"
          ~doc:"Adaptive ceiling in seconds (default: the base interval).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Arm the flight recorder and write the run's events (steals, \
             quantum changes) as Chrome trace_events JSON to $(docv).")
  in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"FILE"
          ~doc:
            "Arm the flight recorder and save the run's binary flight record \
             to $(docv), for $(b,repro observe --load) attribution.")
  in
  let top =
    Arg.(
      value & flag
      & info [ "top" ]
          ~doc:
            "Redraw a $(b,repro top) terminal view (per-sub-pool worker \
             tables, queue-depth sparklines, per-class quantiles) while the \
             workload runs.")
  in
  let top_json =
    Arg.(
      value & flag
      & info [ "top-json" ]
          ~doc:
            "Like $(b,--top) but emit one JSON object per tick (JSONL) \
             instead of redrawing the terminal.")
  in
  let top_period =
    Arg.(
      value & opt float 1.0
      & info [ "top-period" ] ~docv:"S"
          ~doc:"Live-view redraw period in seconds (default 1).")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve_main $ rate $ duration $ mix $ arrival $ burst_period
      $ burst_on $ seed $ domains $ preempt $ fixed $ quantum_min
      $ quantum_max $ json $ chrome $ dump $ top $ top_json $ top_period)

(* ------------------------------------------------------------------ *)
(* repro top — live view over a self-driven workload                  *)
(* ------------------------------------------------------------------ *)

let top_main rate duration domains json period =
  let fail msg =
    prerr_endline ("repro top: " ^ msg);
    exit 1
  in
  let d = Serve.default in
  let cfg =
    {
      d with
      Serve.rate;
      duration;
      domains = Option.value domains ~default:d.Serve.domains;
    }
  in
  (try Serve.validate cfg with Invalid_argument m -> fail m);
  let on_pool pool rq =
    Top.attach ~period ~mode:(if json then Top.Jsonl else Top.Text) pool rq
  in
  ignore (Serve.run ~on_pool cfg : Serve.report)

let top_cmd =
  let doc =
    "Live view: drive the default serving workload ($(b,repro serve)) \
     and redraw per-sub-pool worker tables, queue-depth sparklines, the \
     steal split, the adaptive-quanta range, and per-class p50/p99 of \
     the requests completed since the last redraw, once a second until \
     the run drains.  $(b,--json) swaps the \
     terminal redraw for one JSON object per tick (JSONL).  The same \
     view attaches to any serving run via $(b,repro serve --top)."
  in
  let rate =
    Arg.(
      value & opt float Serve.default.Serve.rate
      & info [ "rate" ] ~docv:"REQ_PER_S"
          ~doc:"Offered arrival rate in requests/second.")
  in
  let duration =
    Arg.(
      value & opt float 5.0
      & info [ "duration" ] ~docv:"S"
          ~doc:"Injection horizon in seconds (default 5).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Pool size incl. the injector worker (default: available cores).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one JSON object per tick (JSONL).")
  in
  let period =
    Arg.(
      value & opt float 1.0
      & info [ "period" ] ~docv:"S"
          ~doc:"Redraw period in seconds (default 1).")
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const top_main $ rate $ duration $ domains $ json $ period)

(* ------------------------------------------------------------------ *)
(* repro check — schedule exploration / fault injection (lib/check)    *)
(* ------------------------------------------------------------------ *)

let parse_strategy s =
  match s with
  | "random" -> Ok Check.Random_walk
  | "dfs" -> Ok Check.Dfs
  | "dpor" -> Ok Check.Dpor
  | _ -> (
      match String.split_on_char ':' s with
      | [ "pct"; d ] -> (
          match int_of_string_opt d with
          | Some d when d >= 0 -> Ok (Check.Pct d)
          | _ -> Error (Printf.sprintf "bad PCT depth in %S" s))
      | _ ->
          Error
            (Printf.sprintf
               "unknown strategy %S (want random, pct:D, dfs or dpor)" s))

let verdict_line ?(must_exhaust = false) name expect (r : Check.report) =
  let verdict, detail =
    match r.Check.result with
    | `Ok ->
        ( Check.Scenarios.Pass,
          Printf.sprintf "no violation in %d schedule(s)%s%s" r.Check.schedules
            (if r.Check.exhausted then " (space exhausted)" else "")
            (if r.Check.pruned > 0 then
               Printf.sprintf " (%d pruned)" r.Check.pruned
             else "") )
    | `Violation cx ->
        ( Check.Scenarios.Fail,
          Printf.sprintf "caught at schedule #%d: %s" cx.Check.cx_schedule
            cx.Check.cx_message )
  in
  let ok =
    verdict = expect
    && ((not must_exhaust) || verdict = Check.Scenarios.Fail || r.Check.exhausted)
  in
  Printf.printf "%-12s %s  %s\n%!" name
    (if ok then "[as expected]" else "[UNEXPECTED]")
    detail;
  ok

let dump_cx_trace trace_file (cx : Check.counterexample) =
  match trace_file with
  | Some path when cx.Check.cx_trace <> "" ->
      let oc = open_out path in
      output_string oc cx.Check.cx_trace;
      close_out oc;
      Printf.printf "chrome trace of the shrunk schedule written to %s\n%!" path
  | _ -> ()

(* A reproduced violation leaves its flight record next to the trail:
   [--flight FILE] picks the path, otherwise [<scenario>.flight]. *)
let dump_cx_flight flight_file default_path (cx : Check.counterexample) =
  if cx.Check.cx_flight <> "" then begin
    let path = Option.value flight_file ~default:default_path in
    let oc = open_out_bin path in
    output_string oc cx.Check.cx_flight;
    close_out oc;
    Printf.printf
      "flight record of the shrunk schedule written to %s (decode with repro \
       observe --load)\n%!"
      path
  end

(* Parallel-determinism smoke: [jobs:1] and [jobs:4] with the same seed
   must agree on the first-violating schedule, its message and its
   shrunk trail (part of @check-smoke). *)
let jobs_determinism_check ~seed =
  match Check.Scenarios.find "racy-flag" with
  | None -> true
  | Some s ->
      let go jobs =
        Check.run ~seed ~jobs ~faults:s.Check.Scenarios.sfaults
          ~budget:s.Check.Scenarios.sbudget ~strategy:Check.Random_walk
          s.Check.Scenarios.prog
      in
      let fingerprint (r : Check.report) =
        match r.Check.result with
        | `Ok -> None
        | `Violation cx ->
            Some
              ( cx.Check.cx_schedule,
                cx.Check.cx_message,
                Check.Trail.signature cx.Check.cx_trail )
      in
      let a = fingerprint (go 1) in
      let b = fingerprint (go 4) in
      let ok = a <> None && a = b in
      Printf.printf "%-12s %s  jobs=1 and jobs=4 agree on the counterexample\n%!"
        "jobs-determ"
        (if ok then "[as expected]" else "[UNEXPECTED]");
      ok

let check_main list_scenarios prog budget strategy seed faults jobs tag
    max_seconds replay trace_file flight_file =
  let fail msg =
    prerr_endline ("repro check: " ^ msg);
    exit 1
  in
  let scenario name =
    match Check.Scenarios.find name with
    | Some s -> s
    | None ->
        fail
          (Printf.sprintf "unknown scenario %S (have: %s)" name
             (String.concat ", " (Check.Scenarios.names ())))
  in
  if jobs <= 0 then fail (Printf.sprintf "--jobs %d (must be positive)" jobs);
  let cli_strategy =
    Option.map
      (fun s -> match parse_strategy s with Ok s -> s | Error m -> fail m)
      strategy
  in
  (* Scenarios built for a specific strategy (DPOR programs) pin it;
     an explicit --strategy wins, the default is random walk. *)
  let strategy_for (s : Check.Scenarios.t) =
    match (cli_strategy, s.Check.Scenarios.sstrategy) with
    | Some st, _ -> st
    | None, Some st -> st
    | None, None -> Check.Random_walk
  in
  let started = Unix.gettimeofday () in
  let check_wall_budget () =
    match max_seconds with
    | Some budget when Unix.gettimeofday () -. started > budget ->
        fail
          (Printf.sprintf "wall-clock budget exceeded (%.1fs > %.1fs)"
             (Unix.gettimeofday () -. started)
             budget)
    | _ -> ()
  in
  if list_scenarios then
    (* Sorted by name: stable output for golden tests. *)
    List.iter
      (fun name ->
        let s = Option.get (Check.Scenarios.find name) in
        Printf.printf "%-14s %s — %s (budget %d%s%s%s)\n" s.Check.Scenarios.sname
          (match s.Check.Scenarios.expect with
          | Check.Scenarios.Pass -> "pass"
          | Check.Scenarios.Fail -> "fail")
          s.Check.Scenarios.sdesc s.Check.Scenarios.sbudget
          (if s.Check.Scenarios.sfaults then ", faults" else "")
          (match s.Check.Scenarios.sstrategy with
          | Some st -> ", strategy " ^ Check.strategy_name st
          | None -> "")
          (match s.Check.Scenarios.stags with
          | [] -> ""
          | ts -> ", tags " ^ String.concat "+" ts))
      (Check.Scenarios.names ())
  else
    match replay with
    | Some rseed ->
        (* Replay one schedule by chooser seed; non-zero exit on
           violation so scripts can assert reproduction. *)
        let s = scenario (Option.value prog ~default:"deadlock") in
        let faults = faults || s.Check.Scenarios.sfaults in
        let r =
          Check.run ~seed:rseed ~faults ~budget:1 ~strategy:(strategy_for s)
            s.Check.Scenarios.prog
        in
        (match r.Check.result with
        | `Ok -> Printf.printf "replay of seed %d: no violation\n%!" rseed
        | `Violation cx ->
            print_endline (Check.describe cx);
            dump_cx_trace trace_file cx;
            dump_cx_flight flight_file
              (s.Check.Scenarios.sname ^ ".flight")
              cx;
            exit 2)
    | None -> (
        match prog with
        | Some name ->
            let s = scenario name in
            let budget =
              Option.value budget ~default:s.Check.Scenarios.sbudget
            in
            let faults = faults || s.Check.Scenarios.sfaults in
            let r =
              Check.run ~seed ~faults ~jobs ~budget ~strategy:(strategy_for s)
                s.Check.Scenarios.prog
            in
            (match r.Check.result with
            | `Violation cx ->
                print_endline (Check.describe cx);
                dump_cx_trace trace_file cx;
                dump_cx_flight flight_file (name ^ ".flight") cx
            | `Ok -> ());
            if
              not
                (verdict_line ~must_exhaust:s.Check.Scenarios.sexhaust name
                   s.Check.Scenarios.expect r)
            then exit 1
        | None ->
            (* Smoke mode: every (selected) scenario must reach its
               expected verdict within its committed budget. *)
            let scenarios =
              match tag with
              | Some t -> (
                  match Check.Scenarios.find_tag t with
                  | [] -> fail (Printf.sprintf "no scenario tagged %S" t)
                  | ss -> ss)
              | None -> Check.Scenarios.all
            in
            let ok =
              List.fold_left
                (fun acc s ->
                  let r =
                    Check.run ~seed ~faults:s.Check.Scenarios.sfaults ~jobs
                      ~budget:s.Check.Scenarios.sbudget
                      ~strategy:(strategy_for s) s.Check.Scenarios.prog
                  in
                  check_wall_budget ();
                  verdict_line ~must_exhaust:s.Check.Scenarios.sexhaust
                    s.Check.Scenarios.sname s.Check.Scenarios.expect r
                  && acc)
                true scenarios
            in
            let ok = if tag = None then jobs_determinism_check ~seed && ok else ok in
            check_wall_budget ();
            if not ok then exit 1)

let check =
  let doc =
    "Explore thread schedules and injected faults; catch deadlocks, lost \
     wakeups and atomicity violations with replayable counterexamples."
  in
  let list_scenarios =
    Arg.(value & flag & info [ "list" ] ~doc:"List the scenario registry.")
  in
  let prog =
    Arg.(
      value
      & opt (some string) None
      & info [ "prog" ] ~docv:"NAME"
          ~doc:"Check one scenario (see $(b,--list)); default: all of them.")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:"Schedules to explore (default: the scenario's own budget).")
  in
  let strategy =
    Arg.(
      value
      & opt (some string) None
      & info [ "strategy" ] ~docv:"S"
          ~doc:
            "Exploration strategy: $(b,random), $(b,pct:D), $(b,dfs) or \
             $(b,dpor).  Default: the scenario's own strategy if it pins one \
             (DPOR programs), else $(b,random).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Base chooser seed (default 1).")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Inject runtime faults: delayed/coalesced timer signals, KLT-pool \
             exhaustion, spurious futex wakeups, worker stalls.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Explore random/PCT schedules on $(docv) domains in parallel.  \
             The reported counterexample is identical for any job count.")
  in
  let tag =
    Arg.(
      value
      & opt (some string) None
      & info [ "tag" ] ~docv:"TAG"
          ~doc:
            "Smoke-check only the scenarios carrying $(docv) (e.g. \
             $(b,lock) for the lock-algorithm suite).")
  in
  let max_seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:
            "Fail if the smoke run exceeds $(docv) seconds of wall clock \
             (CI time-budget guard).")
  in
  let replay =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Replay the single schedule with chooser seed $(docv); exit 2 if \
             it violates an invariant.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the Chrome trace of the shrunk failing schedule to $(docv).")
  in
  let flight_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Where to write the binary flight record of the shrunk failing \
             schedule (default: $(i,SCENARIO).flight next to the trail); \
             decode with $(b,repro observe --load).")
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const check_main $ list_scenarios $ prog $ budget $ strategy $ seed
      $ faults $ jobs $ tag $ max_seconds $ replay $ trace_file $ flight_file)

let env =
  let doc = "Print the simulated machine configurations (paper Table 2)." in
  Cmd.v (Cmd.info "env" ~doc)
    Term.(
      const (fun () ->
          Format.printf "%a@." Oskern.Machine.pp Oskern.Machine.skylake;
          Format.printf "%a@." Oskern.Machine.pp Oskern.Machine.knl)
      $ const ())

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:
        "Reproduce the experiments of 'Lightweight Preemptive User-Level Threads' \
         (PPoPP'21) on a simulated substrate."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ fig4; fig6; table1; fig7; fig8; fig9; sec351; all; observe; serve; top_cmd; check; env ]))
