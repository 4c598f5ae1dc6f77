(** Paper Fig. 9: relative overhead of in-situ analysis with LAMMPS,
    versus the number of atoms, for analysis every 1 (a) and every 2 (b)
    simulation steps. *)

module IR = Moldyn.Insitu_run

let configs =
  [
    { IR.rk = IR.Pthreads; priority = false };
    { IR.rk = IR.Pthreads; priority = true };
    { IR.rk = IR.Argobots; priority = false };
    { IR.rk = IR.Argobots; priority = true };
  ]

type point = {
  atoms_global : float;
  overhead : float;
  time : float;
  idle_frac : float;
}

type series = { config : IR.config; points : point list }

(* Global atom counts (4 nodes); each simulated process holds 1/4. *)
let atom_counts ~fast =
  if fast then [ 1.4e7; 2.8e7; 5.6e7 ] else [ 0.7e7; 1.4e7; 2.8e7; 4.2e7; 5.6e7 ]

let steps ~fast = if fast then 20 else 100

(* The distinct simulations behind the figure.  Panels (a) and (b)
   share the sim-only baseline, and the ablation reuses both the
   baseline and panel (b)'s "Pthreads w/ priority" run, so each is
   computed once. *)
type run =
  | Sim_only of float  (** Argobots w/ priority, no analysis, at [atoms] *)
  | Insitu of int * IR.config * float  (** analysis interval, config, atoms *)
  | Fifo of float  (** Pthreads with SCHED_FIFO simulation threads, interval 2 *)

let runs ~fast =
  let atoms = atom_counts ~fast in
  List.map (fun a -> Sim_only a) atoms
  @ List.concat_map
      (fun interval ->
        List.concat_map
          (fun config -> List.map (fun a -> Insitu (interval, config, a)) atoms)
          configs)
      [ 1; 2 ]
  @ List.map (fun a -> Fifo a) atoms

let simulate ~fast run =
  let steps = steps ~fast in
  match run with
  | Sim_only atoms ->
      IR.run ~atoms:(atoms /. 4.0) ~steps ~analysis_interval:None
        { IR.rk = IR.Argobots; priority = true }
  | Insitu (interval, config, atoms) ->
      IR.run ~atoms:(atoms /. 4.0) ~steps ~analysis_interval:(Some interval) config
  | Fifo atoms ->
      IR.run_pthreads_fifo ~atoms:(atoms /. 4.0) ~steps ~analysis_interval:(Some 2) ()

(* Every run of the figure, spread over domains: [(run, result)] in
   [runs] order. *)
let sweep ~fast =
  let runs = runs ~fast in
  List.combine runs (Exputil.par_map (simulate ~fast) runs)

let series ~fast ~interval results =
  let result run = List.assoc run results in
  let baselines =
    List.map (fun atoms -> (atoms, (result (Sim_only atoms)).IR.time)) (atom_counts ~fast)
  in
  ( baselines,
    List.map
      (fun config ->
        {
          config;
          points =
            List.map
              (fun atoms ->
                let r = result (Insitu (interval, config, atoms)) in
                let baseline = List.assoc atoms baselines in
                {
                  atoms_global = atoms;
                  time = r.IR.time;
                  overhead = (r.IR.time /. baseline) -. 1.0;
                  idle_frac = r.IR.idle_frac;
                })
              (atom_counts ~fast);
        })
      configs )

let print_part ~fast ~interval results label =
  Exputil.subheading label;
  let baselines, data = series ~fast ~interval results in
  Exputil.table ~x_label:"atoms"
    ~columns:(List.map (fun s -> IR.config_name s.config) data @ [ "sim-only time" ])
    ~rows:
      (List.map
         (fun a -> (Printf.sprintf "%.1fe7" (a /. 1e7), a))
         (atom_counts ~fast))
    ~cell:(fun a col ->
      if col = List.length data then Exputil.seconds (List.assoc a baselines)
      else
        let s = List.nth data col in
        match List.find_opt (fun p -> p.atoms_global = a) s.points with
        | Some p -> Printf.sprintf "%s (idle %s)" (Exputil.pct p.overhead) (Exputil.pct p.idle_frac)
        | None -> "-");
  (baselines, data)

let write_csv name (baselines, data) =
  Chart.write_csv
    (Printf.sprintf "results/fig9%s.csv" name)
    ~header:
      ("atoms_e7"
       :: List.map (fun s -> IR.config_name s.config) data
       @ [ "baseline_s" ])
    (List.map
       (fun a ->
         ((a /. 1e7)
          :: List.map
               (fun s ->
                 match List.find_opt (fun p -> p.atoms_global = a) s.points with
                 | Some p -> p.overhead *. 100.0
                 | None -> Float.nan)
               data)
         @ [ List.assoc a baselines ])
       (List.map (fun (a, _) -> a) baselines))

(* Ablation beyond the paper: strict SCHED_FIFO prioritization of the
   simulation threads — the "requires root" option §4.3 mentions. *)
let fifo_ablation ~fast results =
  Exputil.subheading "ablation: Pthreads with SCHED_FIFO simulation threads (interval 2)";
  let time run = (List.assoc run results).IR.time in
  List.iter
    (fun atoms ->
      let base = time (Sim_only atoms) in
      let nice = time (Insitu (2, { IR.rk = IR.Pthreads; priority = true }, atoms)) in
      let fifo = time (Fifo atoms) in
      Printf.printf "%8.1fe7 atoms: nice(19) %s   SCHED_FIFO %s\n" (atoms /. 1e7)
        (Exputil.pct ((nice /. base) -. 1.0))
        (Exputil.pct ((fifo /. base) -. 1.0)))
    (atom_counts ~fast)

let run ?(fast = false) () =
  Exputil.heading
    "Figure 9: in-situ analysis overhead with LAMMPS-style MD (56 workers/process)";
  let results = sweep ~fast in
  let a = print_part ~fast ~interval:1 results "(a) analysis interval = 1" in
  let b = print_part ~fast ~interval:2 results "(b) analysis interval = 2" in
  write_csv "a" a;
  write_csv "b" b;
  fifo_ablation ~fast results;
  Printf.printf
    "\nPaper: Argobots beats Pthreads; prioritization helps both at large atom counts;\n\
     the effect is more pronounced at interval 2 (analysis fits the MPI gaps).\n\
     (results/fig9a.csv, results/fig9b.csv)\n";
  (a, b)
