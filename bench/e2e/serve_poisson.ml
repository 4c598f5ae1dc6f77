(* serve_poisson: open loop.  [Serve.run] with [Serve.default]'s mix
   (95% short requests of 20 us, 5% long of 2 ms), Poisson arrivals, a
   fixed 2 ms quantum, on 2 domains: worker 0 injects, worker 1 serves.
   The single server's nominal capacity is 1 / 119 us = 8.4k req/s; the
   three offered rates sit at 0.5, 0.7 and 0.9 of it, below saturation,
   where the tail measures the runtime and not a runaway queue; the
   reported latencies are those at 0.5.  Uses the external submit path,
   park/wake, the ticker and steals, but never [Fiber.spawn] or the
   recycle fast path. *)

let rates = [| ("r50", 4200.0); ("r70", 5900.0); ("r90", 7500.0) |]

(* A run whose last requests finish later than this after the injection
   horizon has stalled: its requests count as failed. *)
let drain_limit_s = 5.0

(* The latency limit [slo_rate] is judged against. *)
let slo_p99_s = 20e-3

let slo_drain_s = 50e-3

let config ~rate ~duration ~seed ~recorder =
  {
    Serve.default with
    Serve.rate;
    duration;
    domains = 2;
    preempt_interval = Some 2e-3;
    adaptive = false;
    seed;
    recorder;
  }

type run = {
  report : Serve.report;
  setup_s : float;  (** [Serve.run] wall minus the measured [r_elapsed] *)
}

let drain r = r.report.Serve.r_elapsed -. r.report.Serve.r_config.Serve.duration

let steals r =
  List.fold_left
    (fun n st -> n + st.Fiber.st_local_steals + st.Fiber.st_overflow_in)
    0 r.report.Serve.r_subpools

let run_rate ?dump ~rate ~duration ~seed ~recorder () =
  let report, wall =
    Util.time_s (fun () -> Serve.run ?dump (config ~rate ~duration ~seed ~recorder))
  in
  { report; setup_s = wall -. report.Serve.r_elapsed }

(* Each (rep, rate) gets its own arrival schedule, all derived from the
   workload seed. *)
let seed_for seed rep k = Hashtbl.hash (seed, rep, k)

let failed r =
  let rp = r.report in
  let missing = rp.Serve.r_offered - rp.Serve.r_completed in
  if drain r > drain_limit_s then rp.Serve.r_offered else missing

(* Request spans of a recorder-armed run, from the dump [Serve.run]
   saved: the queueing / service / preemption split, and how late the
   injector submitted each request (arrival -> enqueue). *)
type flight = {
  split : Experiments.Observe.span_split option;
  late_s : float array;
  events : Preempt_core.Recorder.event array;
}

let flight ~path =
  match Preempt_core.Recorder.load ~path with
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Ok dump ->
      let module R = Preempt_core.Recorder in
      let arrival = Hashtbl.create 4096 in
      let late = ref [] in
      Array.iter
        (fun e ->
          if e.R.e_code = R.ev_req_arrival then Hashtbl.replace arrival e.R.e_a e.R.e_ts
          else if e.R.e_code = R.ev_req_enqueue then
            match Hashtbl.find_opt arrival e.R.e_a with
            | Some t -> late := (e.R.e_ts -. t) :: !late
            | None -> ())
        dump.R.d_events;
      {
        split = (Experiments.Observe.of_dump dump).Experiments.Observe.r_spans;
        late_s = Array.of_list !late;
        events = dump.R.d_events;
      }

let hist_q h p =
  if Preempt_core.Metrics.Hist.count h = 0 then 0.0 else Preempt_core.Metrics.Hist.quantile h p

let print_split label (f : flight) =
  match f.split with
  | None -> Printf.printf "%s: no request spans in the flight record\n" label
  | Some s ->
      let module O = Experiments.Observe in
      let module H = Preempt_core.Metrics.Hist in
      Printf.printf
        "%s request spans (the flight ring keeps the last ones): %d complete, %d verified; \
         self time queueing %.6f s, service %.6f s, preemption overhead %.6f s; p99 queueing \
         %.3f ms, service %.3f ms; injector late p99 %.1f us\n"
        label s.O.spn_complete s.O.spn_verified (H.sum s.O.spn_queue) (H.sum s.O.spn_service)
        (H.sum s.O.spn_overhead)
        (hist_q s.O.spn_queue 99.0 *. 1e3)
        (hist_q s.O.spn_service 99.0 *. 1e3)
        (Stat.quantile f.late_s 0.99 *. 1e6)

let ms v = v *. 1e3

(* The order of a run's rate runs, as indices into [rates], and each
   one's share of the run.  r50 carries the reported latencies and gets
   eight repetitions; r70 and r90, printed for the load-latency curve,
   get one short run each.  At r70 and above a short p99 swings by half
   from one run to the next on a 2-core host, too much for a bound to
   mean anything. *)
let plan ~tiny =
  if tiny then [| (0, 1.0); (1, 1.0); (2, 1.0) |]
  else
    [|
      (0, 1.0); (1, 0.5); (0, 1.0); (0, 1.0); (2, 0.5); (0, 1.0); (0, 1.0); (0, 1.0); (0, 1.0);
      (0, 1.0);
    |]

let gated = 0

let run ~tiny ~seconds ~seed ~spans ~work =
  let plan = plan ~tiny in
  let warm_s = if tiny then 0.05 else 0.5 in
  let unit_s =
    if tiny then 0.1
    else (seconds -. warm_s) /. Array.fold_left (fun t (_, share) -> t +. share) 0.0 plan
  in
  let dump = Filename.concat work (Printf.sprintf "serve-%d.flt" (Unix.getpid ())) in
  let names =
    Option.map (fun sp -> Array.map (fun (l, _) -> Spans.intern sp ("Serve.run " ^ l)) rates) spans
  in
  let warm =
    run_rate ~rate:(snd rates.(gated)) ~duration:warm_s
      ~seed:(seed_for seed (-1) gated) ~recorder:false ()
  in
  let last_flight = ref None in
  let w0 = Util.minor_words () in
  let runs =
    Array.mapi
      (fun i (k, share) ->
        let rate = snd rates.(k) in
        let seed = seed_for seed i k in
        let duration = unit_s *. share in
        match (spans, names) with
        | Some sp, Some names ->
            let id = Spans.enter sp ~name:names.(k) ~parent:(-1) ~req:i in
            let r = run_rate ~dump ~rate ~duration ~seed ~recorder:true () in
            Spans.leave sp id;
            if k = gated then last_flight := Some (flight ~path:dump);
            Sys.remove dump;
            (k, r)
        | _ -> (k, run_rate ~rate ~duration ~seed ~recorder:false ()))
      plan
  in
  let words = Util.minor_words () -. w0 in
  let at k =
    Array.to_list runs |> List.filter_map (fun (k', r) -> if k' = k then Some r else None)
    |> Array.of_list
  in
  let short f k = Array.map (fun r -> f r.report.Serve.r_short) (at k) in
  let p50 k = short (fun c -> ms c.Serve.cr_p50) k
  and p99 k = short (fun c -> ms c.Serve.cr_p99) k
  and p999 k = short (fun c -> ms c.Serve.cr_p999) k in
  let all = Array.map snd runs in
  Printf.printf "%.2f s per r50 run, after a %.2f s warm-up:\n" unit_s warm_s;
  Array.iteri
    (fun k (label, rate) ->
      let rs = at k in
      let med f = Stat.median (Array.map f rs) in
      Printf.printf
        "  %s (%.0f req/s), median of %d rep(s): short p50 %.3f ms, p99 %.3f ms, p99.9 %.3f ms \
         over %.0f short requests per rep; drain %.1f ms; %.1f preemptions/s; %.3f \
         steals/request\n"
        label rate (Array.length rs) (Stat.median (p50 k)) (Stat.median (p99 k))
        (Stat.median (p999 k))
        (med (fun r -> float_of_int r.report.Serve.r_short.Serve.cr_completed))
        (med drain *. 1e3)
        (med (fun r -> float_of_int r.report.Serve.r_preemptions /. r.report.Serve.r_elapsed))
        (med (fun r -> float_of_int (steals r) /. float_of_int r.report.Serve.r_completed)))
    rates;
  let slo =
    Array.fold_left
      (fun best k ->
        if Stat.median (p99 k) <= ms slo_p99_s && Stat.median (Array.map drain (at k)) <= slo_drain_s
        then snd rates.(k)
        else best)
      0.0
      (Array.init (Array.length rates) Fun.id)
  in
  Printf.printf "  highest rate with short p99 <= %.0f ms and drain <= %.0f ms: %.0f req/s\n"
    (ms slo_p99_s) (ms slo_drain_s) slo;
  (match (spans, !last_flight) with
  | Some sp, Some f ->
      print_split "r50 (last rep)" f;
      sp.Spans.extra <- Experiments.Chrome_trace.of_flight f.events
  | _ -> ());
  let offered = Array.fold_left (fun n r -> n + r.report.Serve.r_offered) 0 all in
  let completed = Array.fold_left (fun n r -> n + r.report.Serve.r_completed) 0 all in
  let elapsed = Array.fold_left (fun t r -> t +. r.report.Serve.r_elapsed) 0.0 all in
  let shorts =
    Stat.median
      (Array.map (fun r -> float_of_int r.report.Serve.r_short.Serve.cr_completed) (at gated))
  in
  let each p =
    Printf.sprintf " of short-request p%g at %s, %.0f samples per rep (%.0f beyond)" p
      (fst rates.(gated)) shorts
      (Float.floor ((1.0 -. (p /. 100.0)) *. shorts))
  in
  {
    Report.metrics =
      [
        Report.of_reps "setup_s" "s"
          (Array.map (fun r -> r.setup_s) (Array.append [| warm |] all))
          ~each:" of Serve.run wall minus its measured elapsed time";
        Report.of_reps "p50_ms" "ms" (p50 gated) ~each:(each 50.0);
        Report.of_reps "p99_ms" "ms" (p99 gated) ~each:(each 99.0);
        Report.of_value "throughput" "1/s"
          (Printf.sprintf "requests completed per second over %d rate runs" (Array.length all))
          (float_of_int completed /. elapsed);
      ];
    outcome =
      { Report.attempted = offered; failed = Array.fold_left (fun n r -> n + failed r) 0 all };
    reps = Array.length all;
    op = "request";
    minor_words_per_op = words /. float_of_int offered;
  }
