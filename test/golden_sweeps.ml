(* Golden bit-identity for the parallel sweeps (dune alias
   @golden-sweeps, part of @runtest).  The fast presets of Fig. 6 and
   Fig. 9 spread their simulations over domains with
   [Experiments.Exputil.par_map]; the CSVs they write must match the
   committed results/ copies (dune deps of this rule) byte for byte.
   The figures write results/ relative to the working directory, the
   build sandbox, so the committed copies are never touched. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* The figures print their tables; keep the test log to the verdict. *)
let quietly f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let csvs = [ "fig6_skylake.csv"; "fig6_knl.csv"; "fig9a.csv"; "fig9b.csv" ]

let () =
  let t0 = Unix.gettimeofday () in
  quietly (fun () ->
      ignore (Experiments.Fig6_overhead.run ~fast:true ());
      ignore (Experiments.Fig9_insitu.run ~fast:true ()));
  let bad =
    List.filter
      (fun f ->
        read_file (Filename.concat "results" f)
        <> read_file (Filename.concat "../results" f))
      csvs
  in
  if bad <> [] then begin
    Printf.printf "FAIL: differs from the committed results/: %s\n" (String.concat " " bad);
    exit 1
  end;
  Printf.printf "golden-sweeps: OK (%s, %.1f s on %d domain(s))\n" (String.concat ", " csvs)
    (Unix.gettimeofday () -. t0)
    (Domain.recommended_domain_count ())
