(* Open-loop serving workload on the real fiber runtime — the
   "millions of users" scenario: an arrival process (Poisson or on/off
   bursty) injects short-lived request fibers at a configured offered
   rate, regardless of how fast the pool completes them (open loop, so
   overload actually builds a queue instead of throttling the client),
   and per-request sojourn times land in [Metrics.Hist] log-scale
   histograms, one per service class, reported as p50/p99/p99.9.

   The injector is the main fiber on worker 0: it spins on the wall
   clock between arrivals and pushes every request through the
   external submission path ([Fiber.submit]), so requests distribute
   round-robin across the pool like any outside traffic and worker 0
   effectively becomes the load-generator core ([domains - 1] workers
   serve).  Sojourn is measured from the request's *scheduled* arrival
   instant, not the submit call — if the injector itself falls behind
   under overload, that lateness is queueing delay and counts.

   The arrival schedule is a pure function of the config (seeded
   xorshift), so two runs offer byte-identical request sequences and
   test_serve pins the process shapes without touching domains. *)

module Quantum = Fiber.Quantum
module Hist = Preempt_core.Metrics.Hist

let wall = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Configuration. *)

type arrival =
  | Poisson
  | Bursty of { period : float; on_frac : float }
      (* all traffic arrives inside the first [on_frac] of every
         [period]-second window, at rate/on_frac (off-rate 0); the mean
         offered rate stays [rate] *)

type cls = Short | Long

type config = {
  rate : float;  (* offered requests per second, both classes together *)
  duration : float;  (* injection horizon in seconds *)
  long_frac : float;  (* fraction of requests in the Long class *)
  short_service : float;  (* spin-work seconds per Short request *)
  long_service : float;  (* spin-work seconds per Long request *)
  arrival : arrival;
  seed : int;
  domains : int;
  preempt_interval : float option;
  adaptive : bool;
  quantum_min : float option;
  quantum_max : float option;
  recorder : bool;  (* arm the flight recorder (steals, quantum moves) *)
}

let default =
  {
    rate = 20_000.0;
    duration = 1.0;
    long_frac = 0.05;
    short_service = 20e-6;
    long_service = 2e-3;
    arrival = Poisson;
    seed = 42;
    domains = Fiber.Config.default_domains () + 1;
    preempt_interval = Some 2e-3;
    adaptive = false;
    quantum_min = None;
    quantum_max = None;
    recorder = false;
  }

let reject field value requirement =
  invalid_arg
    (Printf.sprintf "Serve: %s = %s (must be %s)" field value requirement)

let validate c =
  if not (c.rate > 0.0) then
    reject "rate" (Printf.sprintf "%g" c.rate) "positive";
  if not (c.duration > 0.0) then
    reject "duration" (Printf.sprintf "%g" c.duration) "positive";
  if not (c.long_frac >= 0.0 && c.long_frac <= 1.0) then
    reject "long_frac" (Printf.sprintf "%g" c.long_frac) "within 0..1";
  if not (c.short_service > 0.0) then
    reject "short_service" (Printf.sprintf "%g" c.short_service) "positive";
  if not (c.long_service > 0.0) then
    reject "long_service" (Printf.sprintf "%g" c.long_service) "positive";
  (match c.arrival with
  | Poisson -> ()
  | Bursty { period; on_frac } ->
      if not (period > 0.0) then
        reject "arrival.period" (Printf.sprintf "%g" period) "positive";
      if not (on_frac > 0.0 && on_frac <= 1.0) then
        reject "arrival.on_frac" (Printf.sprintf "%g" on_frac)
          "within (0, 1]")

(* ------------------------------------------------------------------ *)
(* Arrival schedule: (arrival offset, class) rows, offset-ascending,
   deterministic in the seed.  Same xorshift as the runtime's victim
   selection; [u01] maps to (0, 1]. *)

let make_rng seed =
  let state = ref (if seed = 0 then 0x9e3779b9 else seed land max_int) in
  fun () ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state

let u01 rng = (float_of_int (rng () land 0xFFFFFF) +. 1.0) /. 16777217.0

(* Poisson arrivals at [rate]: exponential gaps.  Bursty arrivals reuse
   the same stream at rate/on_frac and then stretch time so gaps fall
   only inside the on-window of each period (off-window time is skipped
   over), keeping the mean offered rate at [rate]. *)
let schedule c =
  validate c;
  let rng = make_rng c.seed in
  let rows = ref [] in
  let n = ref 0 in
  (match c.arrival with
  | Poisson ->
      let t = ref 0.0 in
      let gap () = -.log (u01 rng) /. c.rate in
      t := !t +. gap ();
      while !t < c.duration do
        incr n;
        rows := (!t, if u01 rng < c.long_frac then Long else Short) :: !rows;
        t := !t +. gap ()
      done
  | Bursty { period; on_frac } ->
      let on_s = period *. on_frac in
      let burst_rate = c.rate /. on_frac in
      (* [tau] is time accumulated inside on-windows only. *)
      let tau = ref 0.0 in
      let gap () = -.log (u01 rng) /. burst_rate in
      let to_wall tau =
        let k = Float.of_int (int_of_float (tau /. on_s)) in
        (k *. period) +. (tau -. (k *. on_s))
      in
      tau := !tau +. gap ();
      while to_wall !tau < c.duration do
        incr n;
        rows :=
          (to_wall !tau, if u01 rng < c.long_frac then Long else Short)
          :: !rows;
        tau := !tau +. gap ()
      done);
  Array.of_list (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Reports. *)

type class_report = {
  cr_class : cls;
  cr_offered : int;
  cr_completed : int;
  cr_mean : float;  (* seconds; nan when empty *)
  cr_p50 : float;
  cr_p99 : float;
  cr_p999 : float;
  cr_hist : Hist.t;
}

type report = {
  r_config : config;
  r_offered : int;
  r_completed : int;
  r_elapsed : float;  (* injection start -> last completion awaited *)
  r_short : class_report;
  r_long : class_report;
  r_preemptions : int;
  r_quantum_lo : float;  (* min/max worker quantum at drain time; *)
  r_quantum_hi : float;  (* both = preempt_interval on a fixed pool *)
  r_subpools : Fiber.subpool_stats list;
  r_flight : Preempt_core.Recorder.event array;  (* empty unless recorder *)
}

let quantile_or_nan h p = if Hist.count h = 0 then Float.nan else Hist.quantile h p

let class_report ~cls ~offered lat =
  let h = Hist.create () in
  let completed = ref 0 in
  Array.iter
    (fun v ->
      if not (Float.is_nan v) then begin
        incr completed;
        Hist.add h v
      end)
    lat;
  {
    cr_class = cls;
    cr_offered = offered;
    cr_completed = !completed;
    cr_mean = (if !completed = 0 then Float.nan else Hist.mean h);
    cr_p50 = quantile_or_nan h 50.0;
    cr_p99 = quantile_or_nan h 99.0;
    cr_p999 = quantile_or_nan h 99.9;
    cr_hist = h;
  }

(* ------------------------------------------------------------------ *)
(* The run itself. *)

(* Stable class id, the [b] payload of [ev_req_arrival]. *)
let cls_id = function Short -> 0 | Long -> 1

type requests = { rq_schedule : (float * cls) array; rq_sojourn : float array }

let run ?dump ?on_pool c =
  let sched = schedule c in
  let n = Array.length sched in
  let pool =
    Fiber.make
      (Fiber.Config.make ~domains:c.domains ?preempt_interval:c.preempt_interval
         ~adaptive:c.adaptive ?quantum_min:c.quantum_min
         ?quantum_max:c.quantum_max ~recorder:c.recorder ())
  in
  (* Per-request span tracing rides the flight recorder; [traced] is
     captured once so an untraced run pays nothing per request. *)
  let traced = Preempt_core.Recorder.enabled (Fiber.recorder pool) in
  let module R = Preempt_core.Recorder in
  (* Per-request sojourn, written by the request fiber into its own
     slot (disjoint writes, no shared histogram on the hot path).  A
     live view reads the slots from its own thread. *)
  let lat = Array.make (Stdlib.max 1 n) Float.nan in
  let stop_live =
    match on_pool with
    | Some f -> f pool { rq_schedule = sched; rq_sojourn = lat }
    | None -> fun () -> ()
  in
  let promises = Array.make (Stdlib.max 1 n) None in
  let t0 = ref 0.0 in
  Fiber.run pool (fun () ->
      t0 := wall ();
      for i = 0 to n - 1 do
        let offset, cls = sched.(i) in
        let due = !t0 +. offset in
        (* Open loop: spin to the scheduled instant; never wait for
           completions.  No [Fiber.check] here — the injector must not
           be descheduled in favor of a request, or the load would
           throttle itself closed-loop under overload. *)
        while wall () < due do
          ()
        done;
        let service =
          match cls with Short -> c.short_service | Long -> c.long_service
        in
        (* Span head: the request id is the schedule index, allocated
           here at injection and carried into the fiber by capture.
           Arrival is stamped at the *scheduled* instant, so injector
           lateness shows up as an arrival -> enqueue gap. *)
        if traced then begin
          Fiber.emit_flight ~at:due R.ev_req_arrival i (cls_id cls);
          Fiber.emit_flight R.ev_req_enqueue i 0
        end;
        promises.(i) <-
          Some
            (Fiber.submit pool (fun () ->
                 if traced then Fiber.emit_flight R.ev_req_dispatch i 0;
                 let deadline = wall () +. service in
                 while wall () < deadline do
                   if traced && Fiber.preempt_pending () then begin
                     (* Bracket the yield we are about to take so the
                        span decomposition can attribute the gap to
                        preemption overhead.  [preempt_pending] arms
                        this [check] to take the expiry; only a quantum
                        that ends between the probe and the other
                        branch's [check] is taken unbracketed and lands
                        in service time. *)
                     Fiber.emit_flight R.ev_req_preempt i 0;
                     Fiber.check ();
                     Fiber.emit_flight R.ev_req_resume i 0
                   end
                   else Fiber.check ()
                 done;
                 (* One clock read feeds the latency sample, the span
                    completion timestamp and its sojourn payload, so
                    the decomposition reproduces the measured sojourn
                    exactly. *)
                 let tdone = wall () in
                 let sojourn = tdone -. due in
                 lat.(i) <- sojourn;
                 if traced then
                   Fiber.emit_flight ~at:tdone R.ev_req_done i
                     (int_of_float (sojourn *. 1e9))))
      done;
      Array.iter (function Some p -> Fiber.await p | None -> ()) promises);
  let elapsed = wall () -. !t0 in
  let preemptions = Fiber.preemptions pool in
  let subpools = Fiber.stats pool in
  let quanta =
    List.concat_map (fun st -> List.map snd st.Fiber.st_quanta) subpools
  in
  let flight =
    let r = Fiber.recorder pool in
    if Preempt_core.Recorder.enabled r then begin
      (match dump with
      | Some path -> Preempt_core.Recorder.save r ~path
      | None -> ());
      Preempt_core.Recorder.events r
    end
    else [||]
  in
  stop_live ();
  Fiber.shutdown pool;
  let split cls0 =
    let lat' = Array.make (Stdlib.max 1 n) Float.nan in
    let offered = ref 0 in
    Array.iteri
      (fun i (_, cls) ->
        if cls = cls0 then begin
          incr offered;
          lat'.(i) <- lat.(i)
        end)
      sched;
    class_report ~cls:cls0 ~offered:!offered lat'
  in
  let short = split Short in
  let long = split Long in
  {
    r_config = c;
    r_offered = n;
    r_completed = short.cr_completed + long.cr_completed;
    r_elapsed = elapsed;
    r_short = short;
    r_long = long;
    r_preemptions = preemptions;
    r_quantum_lo =
      List.fold_left Float.min Float.infinity
        (if quanta = [] then [ 0.0 ] else quanta);
    r_quantum_hi =
      List.fold_left Float.max Float.neg_infinity
        (if quanta = [] then [ 0.0 ] else quanta);
    r_subpools = subpools;
    r_flight = flight;
  }

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let cls_name = function Short -> "short" | Long -> "long"

let us v = v *. 1e6

let print_text r =
  let c = r.r_config in
  Printf.printf
    "serve: %d request(s) offered over %.2fs (%.0f/s %s, %.0f%% long), %d \
     completed in %.2fs\n"
    r.r_offered c.duration c.rate
    (match c.arrival with
    | Poisson -> "poisson"
    | Bursty { period; on_frac } ->
        Printf.sprintf "bursty %.0f%% of %.0fms" (on_frac *. 100.0)
          (period *. 1e3))
    (c.long_frac *. 100.0) r.r_completed r.r_elapsed;
  Printf.printf "pool: %d domains (worker 0 injects), preemption %s%s\n"
    c.domains
    (match c.preempt_interval with
    | None -> "off"
    | Some dt -> Printf.sprintf "%.0f us" (us dt))
    (if c.adaptive then
       Printf.sprintf " adaptive (quantum now %.0f..%.0f us), %d preemptions"
         (us r.r_quantum_lo) (us r.r_quantum_hi) r.r_preemptions
     else Printf.sprintf " fixed, %d preemptions" r.r_preemptions);
  let line cr =
    Printf.printf
      "  %-5s %7d/%d done  mean %9.1f us  p50 %9.1f us  p99 %9.1f us  p99.9 \
       %9.1f us\n"
      (cls_name cr.cr_class) cr.cr_completed cr.cr_offered (us cr.cr_mean)
      (us cr.cr_p50) (us cr.cr_p99) (us cr.cr_p999)
  in
  line r.r_short;
  line r.r_long;
  (* Cross-class aggregate: one bucket-wise merge instead of
     re-bucketing the pooled samples. *)
  let all = Hist.merge r.r_short.cr_hist r.r_long.cr_hist in
  if Hist.count all > 0 then
    Printf.printf
      "  %-5s %7d/%d done  mean %9.1f us  p50 %9.1f us  p99 %9.1f us  p99.9 \
       %9.1f us\n"
      "all" (Hist.count all) r.r_offered (us (Hist.mean all))
      (us (quantile_or_nan all 50.0))
      (us (quantile_or_nan all 99.0))
      (us (quantile_or_nan all 99.9))

let jf v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_json r =
  let c = r.r_config in
  let cls_json cr =
    Printf.sprintf
      "{\"offered\":%d,\"completed\":%d,\"mean_s\":%s,\"p50_s\":%s,\"p99_s\":%s,\"p999_s\":%s}"
      cr.cr_offered cr.cr_completed (jf cr.cr_mean) (jf cr.cr_p50)
      (jf cr.cr_p99) (jf cr.cr_p999)
  in
  let all = Hist.merge r.r_short.cr_hist r.r_long.cr_hist in
  let all_json =
    Printf.sprintf
      "{\"completed\":%d,\"mean_s\":%s,\"p50_s\":%s,\"p99_s\":%s,\"p999_s\":%s}"
      (Hist.count all)
      (jf (if Hist.count all = 0 then Float.nan else Hist.mean all))
      (jf (quantile_or_nan all 50.0))
      (jf (quantile_or_nan all 99.0))
      (jf (quantile_or_nan all 99.9))
  in
  Printf.sprintf
    "{\"rate\":%s,\"duration\":%s,\"arrival\":%S,\"long_frac\":%s,\"domains\":%d,\"adaptive\":%b,\"preempt_interval_s\":%s,\"offered\":%d,\"completed\":%d,\"elapsed_s\":%s,\"preemptions\":%d,\"quantum_lo_s\":%s,\"quantum_hi_s\":%s,\"short\":%s,\"long\":%s,\"overall\":%s}\n"
    (jf c.rate) (jf c.duration)
    (match c.arrival with Poisson -> "poisson" | Bursty _ -> "bursty")
    (jf c.long_frac) c.domains c.adaptive
    (match c.preempt_interval with None -> "null" | Some dt -> jf dt)
    r.r_offered r.r_completed (jf r.r_elapsed) r.r_preemptions
    (jf r.r_quantum_lo) (jf r.r_quantum_hi) (cls_json r.r_short)
    (cls_json r.r_long) all_json
