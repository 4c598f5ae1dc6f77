(** Paper Fig. 8: relative overhead of thread packing in HPGMG-FV.

    28 threads per process; the number of active cores shrinks from 28
    to n.  Baseline: n threads on n cores from the start.  Expected
    shape: IOMP (taskset + CFS) far from ideal, worst near n=28;
    nonpreemptive BOLT good only when n divides 28; preemptive BOLT
    close to ideal, 1 ms a bit better than 10 ms. *)

open Preempt_core
module PR = Multigrid.Packing_run

let n_threads = 28

let configs =
  [
    PR.Bolt_packing
      { kind = Types.Nonpreemptive; timer = Config.No_timer; interval = 1e-3 };
    PR.Bolt_packing
      { kind = Types.Klt_switching; timer = Config.Per_worker_aligned; interval = 10e-3 };
    PR.Bolt_packing
      { kind = Types.Klt_switching; timer = Config.Per_worker_aligned; interval = 1e-3 };
    PR.Iomp_taskset;
  ]

type point = { n_active : int; overhead : float }

type series = { config : PR.config; points : point list }

let active_counts ~fast =
  if fast then [ 5; 7; 14; 20; 27; 28 ] else List.init 25 (fun i -> i + 4)

(* The profile keeps the paper's scale even in fast mode: shrinking the
   solve would make phases shorter than the preemption intervals and
   change the physics; fast mode only trims the sweep points. *)
let phases ~fast =
  ignore fast;
  Multigrid.Fmg_profile.phases ~levels:7 ~total_core_seconds:25.0

let series ?(fast = false) () =
  let phases = phases ~fast in
  let baselines =
    List.map (fun n -> (n, PR.baseline ~n ~phases ())) (active_counts ~fast)
  in
  ( baselines,
    List.map
      (fun config ->
        {
          config;
          points =
            List.map
              (fun n ->
                let r = PR.run ~n_threads ~n_active:n ~phases config in
                { n_active = n; overhead = (r.PR.time /. List.assoc n baselines) -. 1.0 })
              (active_counts ~fast);
        })
      configs )

let run ?(fast = false) () =
  Exputil.heading
    "Figure 8: thread packing overhead in HPGMG-FV (28 threads packed onto n cores)";
  let baselines, data = series ~fast () in
  Exputil.table ~x_label:"n"
    ~columns:(List.map (fun s -> PR.config_name s.config) data @ [ "baseline time" ])
    ~rows:(List.map (fun n -> (string_of_int n, n)) (active_counts ~fast))
    ~cell:(fun n col ->
      if col = List.length data then Exputil.seconds (List.assoc n baselines)
      else
        let s = List.nth data col in
        match List.find_opt (fun p -> p.n_active = n) s.points with
        | Some p -> Exputil.pct p.overhead
        | None -> "-");
  print_newline ();
  print_string
    (Chart.render ~x_label:"active cores" ~y_label:"overhead %"
       (List.map
          (fun s ->
            {
              Chart.label = PR.config_name s.config;
              points =
                List.map (fun p -> (float_of_int p.n_active, p.overhead *. 100.0)) s.points;
            })
          data));
  Chart.write_csv "results/fig8.csv"
    ~header:("n_active" :: List.map (fun s -> PR.config_name s.config) data @ [ "baseline_s" ])
    (List.map
       (fun n ->
         (float_of_int n
          :: List.map
               (fun s ->
                 match List.find_opt (fun p -> p.n_active = n) s.points with
                 | Some p -> p.overhead *. 100.0
                 | None -> Float.nan)
               data)
         @ [ List.assoc n baselines ])
       (active_counts ~fast));
  Printf.printf
    "\nPaper: IOMP far from ideal (CFS load imbalance), nonpreemptive BOLT good only\n\
     at divisors of 28, preemptive BOLT near-ideal with 1 ms < 10 ms. (results/fig8.csv)\n";
  (baselines, data)
