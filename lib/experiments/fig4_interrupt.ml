(** Paper Fig. 4: average time of an OS timer interruption (1 ms
    interval) versus the number of workers, for the four preemption
    timer strategies.

    Expected shape: "Per-worker (creation-time)" and "Per-process
    (one-to-all)" grow roughly linearly with worker count (kernel
    signal-lock contention, pthread_kill bursts); "Per-worker (aligned)"
    stays flat; "Per-process (chain)" stays flat, slightly above aligned
    (the extra pthread_kill per hop). *)

open Desim
open Oskern
open Preempt_core

type point = { workers : int; mean : float; stddev : float }

type series = { strategy : Config.timer_strategy; points : point list }

let strategies =
  [
    Config.Per_worker_creation;
    Config.Per_worker_aligned;
    Config.Per_process_one_to_all;
    Config.Per_process_chain;
  ]

let measure ~workers ~strategy ~intervals =
  let eng = Engine.create () in
  (* Up to 112 workers: treat hyperthreads as cores, as the paper does. *)
  let machine = Machine.with_cores Machine.skylake workers in
  let kernel = Kernel.create eng machine in
  let interval = 1e-3 in
  let config =
    Exputil.Obs.config { Config.default with Config.timer_strategy = strategy; interval }
  in
  let rt = Runtime.create ~config kernel ~n_workers:workers in
  let horizon = interval *. float_of_int (intervals + 2) in
  for i = 0 to workers - 1 do
    ignore
      (Runtime.spawn rt ~kind:Types.Signal_yield ~footprint:0.0 ~home:i
         ~name:(Printf.sprintf "spin%d" i)
         (fun () ->
           (* Spin past the horizon; the run is cut off by ~until. *)
           Ult.compute (horizon +. 1.0)))
  done;
  Runtime.start rt;
  Engine.run ~until:horizon eng;
  Exputil.Obs.capture rt;
  let s = Runtime.interrupt_stats rt in
  { workers; mean = Stats.mean s; stddev = Stats.stddev s }

let worker_counts ~fast =
  if fast then [ 1; 4; 16; 56 ] else [ 1; 2; 4; 8; 16; 32; 56; 84; 112 ]

let series ?(fast = false) () =
  let intervals = if fast then 30 else 100 in
  List.map
    (fun strategy ->
      {
        strategy;
        points =
          List.map (fun workers -> measure ~workers ~strategy ~intervals) (worker_counts ~fast);
      })
    strategies

let run ?(fast = false) () =
  Exputil.heading "Figure 4: timer interruption time vs #workers (1 ms interval, Skylake)";
  let data = series ~fast () in
  let counts = worker_counts ~fast in
  Exputil.table ~x_label:"#workers"
    ~columns:(List.map (fun s -> Config.timer_strategy_name s.strategy) data)
    ~rows:(List.map (fun w -> (string_of_int w, w)) counts)
    ~cell:(fun w i ->
      let s = List.nth data i in
      match List.find_opt (fun p -> p.workers = w) s.points with
      | Some p -> Printf.sprintf "%s +-%.1f" (Exputil.us p.mean) (p.stddev *. 1e6)
      | None -> "-");
  let chart_series =
    List.map
      (fun s ->
        {
          Chart.label = Config.timer_strategy_name s.strategy;
          points = List.map (fun p -> (float_of_int p.workers, p.mean *. 1e6)) s.points;
        })
      data
  in
  print_newline ();
  print_string
    (Chart.render ~x_log:true ~y_log:true ~x_label:"#workers" ~y_label:"interrupt us"
       chart_series);
  Chart.write_csv "results/fig4.csv"
    ~header:[ "workers"; "creation_us"; "aligned_us"; "one_to_all_us"; "chain_us" ]
    (List.map
       (fun w ->
         float_of_int w
         :: List.map
              (fun s ->
                match List.find_opt (fun p -> p.workers = w) s.points with
                | Some p -> p.mean *. 1e6
                | None -> Float.nan)
              data)
       (worker_counts ~fast));
  Printf.printf
    "\nPaper: creation-time/one-to-all grow ~linearly (to ~100 us / tens of us at 112);\n\
     aligned stays ~1 us; chain flat, slightly above aligned. (results/fig4.csv)\n";
  data
