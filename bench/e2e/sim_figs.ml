(* sim_figs: the paper-reproduction path.  The fast presets of Fig. 4,
   Fig. 6 and Fig. 9 run through their public [run ~fast:true] in a
   scratch working directory, and the CSVs they write must match the
   committed [results/] copies byte for byte.  Only desim / oskern /
   preempt_core run here, so a change to lib/fiber should leave it
   unchanged.  Fig. 7 (136 s) and Fig. 8 (15 s) do not fit a run. *)

module E = Experiments

let figures ~tiny =
  let fig4 = ("Fig4_interrupt.run", fun () -> ignore (E.Fig4_interrupt.run ~fast:true ())) in
  if tiny then [ fig4 ]
  else
    [
      fig4;
      ("Fig6_overhead.run", fun () -> ignore (E.Fig6_overhead.run ~fast:true ()));
      ("Fig9_insitu.run", fun () -> ignore (E.Fig9_insitu.run ~fast:true ()));
    ]

let csvs ~tiny =
  if tiny then [ "fig4.csv" ]
  else [ "fig4.csv"; "fig6_skylake.csv"; "fig6_knl.csv"; "fig9a.csv"; "fig9b.csv" ]

(* Set-up cost: building the largest simulated machine and runtime the
   figures run on (56 Skylake workers), without running it. *)
let setup_samples n =
  Array.init n (fun _ ->
      snd
        (Util.time_s (fun () ->
             let eng = Desim.Engine.create () in
             let kernel =
               Oskern.Kernel.create eng (Oskern.Machine.with_cores Oskern.Machine.skylake 56)
             in
             ignore (Sys.opaque_identity (Preempt_core.Runtime.create kernel ~n_workers:56)))))

(* The CSVs of [csvs] under [dir]/results that differ from, or are
   missing next to, the copies in [reference]. *)
let mismatches ~tiny ~dir ~reference =
  List.filter
    (fun f ->
      let got = Filename.concat (Filename.concat dir "results") f in
      not
        (Sys.file_exists got
        && Util.read_file got = Util.read_file (Filename.concat reference f)))
    (csvs ~tiny)

type set = { set_s : float; fig_s : (string * float) list; bad : string list }

(* One set of figures in a fresh scratch directory, each figure
   bracketed by a span when traced. *)
let one_set ?spans ~tiny ~dir ~reference () =
  Util.rm_rf dir;
  Util.mkdir_p dir;
  let t0 = Util.now_ns () in
  let fig_s =
    Util.in_dir dir (fun () ->
        List.map
          (fun (name, f) ->
            let id =
              match spans with
              | Some sp -> Spans.enter sp ~name:(Spans.intern sp name) ~parent:(-1) ~req:(-1)
              | None -> -1
            in
            let (), s = Util.time_s (fun () -> Util.quietly f) in
            Option.iter (fun sp -> Spans.leave sp id) spans;
            (name, s))
          (figures ~tiny))
  in
  let set_s = float_of_int (Util.now_ns () - t0) *. 1e-9 in
  let bad = mismatches ~tiny ~dir ~reference in
  Util.rm_rf dir;
  { set_s; fig_s; bad }

let run ~tiny ~seconds ~spans ~work ~reference =
  let setup = setup_samples 51 in
  let dir = Filename.concat work (Printf.sprintf "sim-%d" (Unix.getpid ())) in
  let w0 = Util.minor_words () in
  let t_end = Util.now_s () +. seconds in
  let rec loop acc =
    let s = one_set ?spans ~tiny ~dir ~reference () in
    Printf.printf "set %d: %.3f s (%s)%s\n" (List.length acc) s.set_s
      (String.concat ", " (List.map (fun (n, t) -> Printf.sprintf "%s %.3f s" n t) s.fig_s))
      (if s.bad = [] then "" else ", CSV mismatch: " ^ String.concat " " s.bad);
    let acc = s :: acc in
    if (not tiny) && Util.now_s () +. s.set_s <= t_end then loop acc else List.rev acc
  in
  let sets = Array.of_list (loop []) in
  let words = Util.minor_words () -. w0 in
  let set_ms = Array.map (fun s -> s.set_s *. 1e3) sets in
  let n_figs = List.length (figures ~tiny) in
  let checked = Array.length sets * List.length (csvs ~tiny) in
  let bad = Array.fold_left (fun n s -> n + List.length s.bad) 0 sets in
  {
    Report.metrics =
      [
        Report.of_reps "setup_s" "s" setup ~each:" of building a 56-worker simulated runtime";
        Report.of_samples "p50_ms" "ms" ~p:0.5 ~what:"figure sets" set_ms;
        Report.of_samples "p99_ms" "ms" ~p:0.99 ~what:"figure sets" set_ms;
        Report.of_value "throughput" "1/s"
          (Printf.sprintf "figures per second over %d set(s)" (Array.length sets))
          (float_of_int (n_figs * Array.length sets)
          /. Array.fold_left (fun t s -> t +. s.set_s) 0.0 sets);
      ];
    outcome = { Report.attempted = checked; failed = bad };
    reps = Array.length sets;
    op = "figure";
    minor_words_per_op = words /. float_of_int (n_figs * Array.length sets);
  }
