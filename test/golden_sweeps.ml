(* Golden bit-identity for the parallel sweeps (dune alias
   @golden-sweeps, part of @runtest).  The fast presets of Fig. 6 and
   Fig. 9 spread their simulations over domains with
   [Experiments.Exputil.par_map]; the CSVs they write must match the
   committed results/ copies (dune deps of this rule) byte for byte.
   The figures write results/ relative to the working directory, the
   build sandbox, so the committed copies are never touched.

   The CSVs do not carry every bit the sweeps compute: Fig. 9's
   per-point idle fraction reaches only stdout, rounded.  So the exact
   bits of each Fig. 9 point's makespan and idle fraction are pinned
   too, in fig9_bits.txt (one line per point: panel, configuration,
   atoms, then the [Int64.bits_of_float] of [time] and [idle_frac]). *)

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

let fig9_bits (a, b) =
  let module F = Experiments.Fig9_insitu in
  let panel name (_, series) =
    List.concat_map
      (fun (s : F.series) ->
        List.map
          (fun (p : F.point) ->
            Printf.sprintf "%s %s %g %Ld %Ld\n" name
              (Moldyn.Insitu_run.config_name s.config)
              p.atoms_global (Int64.bits_of_float p.time) (Int64.bits_of_float p.idle_frac))
          s.points)
      series
  in
  String.concat "" (panel "a" a @ panel "b" b)

let () =
  let t0 = Unix.gettimeofday () in
  let fig9 =
    quietly (fun () ->
        ignore (Experiments.Fig6_overhead.run ~fast:true ());
        Experiments.Fig9_insitu.run ~fast:true ())
  in
  let bad =
    List.filter
      (fun f ->
        read_file (Filename.concat "results" f)
        <> read_file (Filename.concat "../results" f))
      csvs
  in
  let bits = fig9_bits fig9 in
  let bad = if bits = read_file "fig9_bits.txt" then bad else bad @ [ "fig9_bits.txt" ] in
  if bad <> [] then begin
    Printf.printf "Fig. 9 bits of this run:\n%s" bits;
    Printf.printf "FAIL: differs from the committed results/: %s\n" (String.concat " " bad);
    exit 1
  end;
  Printf.printf "golden-sweeps: OK (%s, fig9_bits.txt, %.1f s on %d domain(s))\n"
    (String.concat ", " csvs)
    (Unix.gettimeofday () -. t0)
    (Domain.recommended_domain_count ())
