(** Paper Fig. 6: relative overhead of preemptive M:N threads over
    nonpreemptive M:N threads, as a function of the preemption-timer
    interval, on Skylake and KNL.

    Five variants, matching the paper's lines: pure timer interruption,
    signal-yield, and KLT-switching in three optimization stages
    (sigsuspend-based, futex-based, futex + worker-local KLT pool).
    Expected shape: signal-yield ~= timer-only; each KLT-switching
    optimization cuts the gap; everything melts below 1% once the
    interval reaches ~1 ms (Skylake) / ~10 ms (KNL). *)

open Desim
open Oskern
open Preempt_core

type variant =
  | Timer_only
  | Signal_yield_v
  | Klt_naive  (** sigsuspend suspend/resume, global pool only *)
  | Klt_futex  (** futex suspend/resume, global pool only *)
  | Klt_futex_local  (** futex + worker-local KLT pools *)

let variant_name = function
  | Timer_only -> "Timer interruption only"
  | Signal_yield_v -> "Signal-yield"
  | Klt_naive -> "KLT-switching"
  | Klt_futex -> "KLT-switching (futex)"
  | Klt_futex_local -> "KLT-switching (futex, local pool)"

let variants = [ Klt_naive; Klt_futex; Klt_futex_local; Signal_yield_v; Timer_only ]

type point = { interval : float; overhead : float }

type series = { variant : variant; points : point list }

(* The paper's microbenchmark: each of [workers] workers runs
   [threads_per_worker] threads that just consume cycles. *)
let run_once machine ~workers ~threads_per_worker ~per_thread ~variant ~interval =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores machine workers) in
  let timer_strategy =
    match (variant, interval) with
    | _, None -> Config.No_timer
    | _, Some _ -> Config.Per_worker_aligned
  in
  let config =
    {
      Config.default with
      Config.timer_strategy;
      interval = Option.value ~default:1e-3 interval;
      suspend_mode =
        (match variant with Klt_naive -> Config.Sigsuspend | _ -> Config.Futex_suspend);
      use_local_klt_pool = (match variant with Klt_futex_local -> true | _ -> false);
    }
  in
  let rt = Runtime.create ~config kernel ~n_workers:workers in
  let kind =
    match variant with
    | Timer_only -> Types.Nonpreemptive
    | Signal_yield_v -> Types.Signal_yield
    | Klt_naive | Klt_futex | Klt_futex_local -> Types.Klt_switching
  in
  let finish = ref 0.0 in
  for w = 0 to workers - 1 do
    for t = 0 to threads_per_worker - 1 do
      ignore
        (Runtime.spawn rt ~kind ~footprint:0.0 ~home:w
           ~name:(Printf.sprintf "spin%d.%d" w t) (fun () ->
             Ult.compute per_thread;
             finish := Float.max !finish (Ult.now ())))
    done
  done;
  Runtime.start rt;
  Engine.run eng;
  !finish

(* The shortest intervals are by far the most expensive to simulate
   (switch cost approaches the interval, especially on KNL); the fast
   preset trims them. *)
let intervals ?(knl = false) ~fast () =
  if fast then (if knl then [ 1e-3; 3e-3; 1e-2 ] else [ 3e-4; 1e-3; 1e-2 ])
  else [ 1e-4; 3e-4; 1e-3; 3e-3; 1e-2 ]

(* The paper's setup: 56 workers x 10 threads, each thread long enough
   that end-of-run scheduling noise (max over 56 workers) stays below
   the per-switch signal, as in the paper's headline "overhead < 1% at
   1 ms". *)
let workers = 56

let threads_per_worker = 10

let per_thread = 20e-3

(* Every run of [machines]' panels, in one list so [Exputil.par_map]
   can spread them all: per machine, the nonpreemptive baseline, then
   each variant at each interval. *)
let runs ~fast machines =
  List.concat_map
    (fun machine ->
      let knl = machine == Machine.knl in
      (machine, Timer_only, None)
      :: List.concat_map
           (fun variant ->
             List.map (fun i -> (machine, variant, Some i)) (intervals ~knl ~fast ()))
           variants)
    machines

(* Each machine's [(baseline, series)], in [machines] order. *)
let sweep ~fast machines =
  let runs = runs ~fast machines in
  let times =
    List.combine runs
      (Exputil.par_map
         (fun (machine, variant, interval) ->
           run_once machine ~workers ~threads_per_worker ~per_thread ~variant ~interval)
         runs)
  in
  let time machine variant interval =
    snd (List.find (fun ((m, v, i), _) -> m == machine && v = variant && i = interval) times)
  in
  List.map
    (fun machine ->
      let knl = machine == Machine.knl in
      let baseline = time machine Timer_only None in
      ( baseline,
        List.map
          (fun variant ->
            {
              variant;
              points =
                List.map
                  (fun interval ->
                    let t = time machine variant (Some interval) in
                    { interval; overhead = (t /. baseline) -. 1.0 })
                  (intervals ~knl ~fast ());
            })
          variants ))
    machines

let series_for machine ?(fast = false) () = List.hd (sweep ~fast [ machine ])

let run ?(fast = false) () =
  let print machine label (baseline, data) =
    Exputil.subheading label;
    Printf.printf "(nonpreemptive baseline: %s)\n" (Exputil.seconds baseline);
    let knl = machine == Machine.knl in
    Exputil.table ~x_label:"interval"
      ~columns:(List.map (fun s -> variant_name s.variant) data)
      ~rows:
        (List.map (fun i -> (Printf.sprintf "%gus" (i *. 1e6), i)) (intervals ~knl ~fast ()))
      ~cell:(fun i col ->
        let s = List.nth data col in
        match List.find_opt (fun p -> p.interval = i) s.points with
        | Some p -> Exputil.pct p.overhead
        | None -> "-");
    print_newline ();
    print_string
      (Chart.render ~x_log:true ~y_log:true ~x_label:"interval us" ~y_label:"overhead %"
         (List.map
            (fun s ->
              {
                Chart.label = variant_name s.variant;
                points =
                  List.map (fun p -> (p.interval *. 1e6, p.overhead *. 100.0)) s.points;
              })
            data));
    Chart.write_csv
      (Printf.sprintf "results/fig6_%s.csv" (if machine == Machine.knl then "knl" else "skylake"))
      ~header:("interval_us" :: List.map (fun s -> variant_name s.variant) data)
      (List.map
         (fun i ->
           (i *. 1e6)
           :: List.map
                (fun s ->
                  match List.find_opt (fun p -> p.interval = i) s.points with
                  | Some p -> p.overhead *. 100.0
                  | None -> Float.nan)
                data)
         (intervals ~knl ~fast ()));
    data
  in
  Exputil.heading
    "Figure 6: overhead of preemptive vs nonpreemptive M:N threads (56 workers x 10 threads)";
  let sky, knl =
    match sweep ~fast [ Machine.skylake; Machine.knl ] with
    | [ sky; knl ] -> (sky, knl)
    | _ -> assert false
  in
  let sky = print Machine.skylake "(a) Skylake" sky in
  let knl = print Machine.knl "(b) KNL" knl in
  Printf.printf
    "\nPaper: signal-yield ~ timer-only; futex and local-pool each cut KLT-switching\n\
     overhead (~2x combined); <1%% at 1 ms on Skylake, ~10 ms on KNL.\n";
  (sky, knl)
