(* The repository's end-to-end benchmark.  See README.md.

     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--work DIR] [--reference DIR]
     e2e.exe compare --parent DIR --change DIR [--bench BENCHMARK.json]
     e2e.exe smoke --bench BENCHMARK.json --reference DIR [--work DIR]

   A run measures one workload for [--seconds], prints every metric with
   its unit and basis, writes a result file under [DIR/results], and
   ends its output with one JSON line.  With [--trace 1] it also writes
   a Chrome trace, prints each layer's self time and the tracing
   overhead, and reports the per-layer metrics instead of the
   end-to-end ones. *)

let workloads = [ "serve_poisson"; "forkjoin"; "preempt_spin"; "sim_figs" ]

(* Domains a workload runs; a host with fewer cores cannot measure it. *)
let domains_needed = function "sim_figs" -> 1 | _ -> 2

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  work : string;  (** scratch space and outputs, inside the checkout *)
  reference : string;  (** the committed figure CSVs *)
  tiny : bool;  (** the smoke scale *)
}

let pass o ~seconds ~spans =
  let tiny = o.tiny and seed = o.seed and work = o.work in
  match o.workload with
  | "serve_poisson" -> Serve_poisson.run ~tiny ~seconds ~seed ~spans ~work
  | "forkjoin" -> Forkjoin.run ~tiny ~seconds ~spans
  | "preempt_spin" -> Preempt_spin.run ~tiny ~seconds ~spans
  | "sim_figs" -> Sim_figs.run ~tiny ~seconds ~spans ~work ~reference:o.reference
  | w -> invalid_arg ("unknown workload " ^ w)

let trace_path o =
  Filename.concat o.work (Printf.sprintf "trace-%s-s%d.json" o.workload o.seed)

(* The end-to-end metrics of one untraced pass, in BENCHMARK.json's
   order. *)
let end_to_end (r : Report.t) =
  let get n = Option.get (Report.find n r.Report.metrics) in
  [
    get "setup_s";
    Report.of_value "peak_rss_mb" "MB" "VmHWM of the process" (Util.peak_rss_mb ());
    get "p50_ms";
    get "p99_ms";
    get "throughput";
  ]

(* An untraced pass gives the end-to-end metrics.  A traced run makes
   an untraced and a traced pass of half the length each (their
   difference is the tracing overhead), writes the trace, and then
   measures the per-layer ladder. *)
let measure ?(ladder = true) o =
  if not o.trace then begin
    let r = pass o ~seconds:o.seconds ~spans:None in
    (r, r.Report.outcome, end_to_end r)
  end
  else begin
    let half = o.seconds /. 2.0 in
    Printf.printf "untraced pass (%.1f s):\n%!" half;
    let u = pass o ~seconds:half ~spans:None in
    let sp = Spans.create () in
    Printf.printf "traced pass (%.1f s):\n%!" half;
    let t = pass o ~seconds:half ~spans:(Some sp) in
    Printf.printf "tracing overhead (traced - untraced):\n";
    List.iter
      (fun (m : Report.metric) ->
        match Report.find m.Report.name t.Report.metrics with
        | Some mt ->
            Printf.printf "  %-12s %+.6g %s (%+.1f%%)\n" m.Report.name
              (mt.Report.value -. m.Report.value)
              m.Report.unit_
              (100.0 *. Stat.ratio (mt.Report.value -. m.Report.value) m.Report.value)
        | None -> ())
      u.Report.metrics;
    Spans.print_layers sp;
    let path = trace_path o in
    let valid =
      match Spans.write sp ~path with
      | Ok n ->
          Printf.printf "chrome trace: %d events -> %s\n" n path;
          Report.ok 1
      | Error msg ->
          Printf.printf "chrome trace %s is invalid: %s\n" path msg;
          { Report.attempted = 1; failed = 1 }
    in
    let metrics, lo =
      if ladder then Ladder.run ~tiny:o.tiny ~seed:o.seed ~work:o.work ~reference:o.reference
      else ([], Report.no_outcome)
    in
    (t, Report.(u.outcome ++ t.outcome ++ valid ++ lo), metrics)
  end

let run o =
  let started = Unix.gettimeofday () in
  Util.mkdir_p o.work;
  Printf.printf "%s: seed %d, %.1f s, trace %b, %d core(s), OCaml %s\n%!" o.workload o.seed
    o.seconds o.trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let (r, outcome, metrics), wall_s = Util.time_s (fun () -> measure o) in
  Printf.printf "metrics:\n";
  List.iter Report.print_metric metrics;
  Printf.printf "minor words per %s: %.6g; %d of %d outcome(s) failed; %.1f s\n" r.Report.op
    r.Report.minor_words_per_op outcome.Report.failed outcome.Report.attempted wall_s;
  let dir = Filename.concat o.work "results" in
  Util.mkdir_p dir;
  let file =
    Filename.concat dir
      (Printf.sprintf "%s-t%d-s%d-%.0f.json" o.workload (if o.trace then 1 else 0) o.seed
         (started *. 1e3))
  in
  Util.write_file file
    (Report.result_file
       {
         Report.workload = o.workload;
         seed = o.seed;
         trace = o.trace;
         seconds = o.seconds;
         started;
         wall_s;
       }
       r outcome metrics);
  Printf.printf "result file: %s\n" file;
  print_endline (Report.result_line outcome metrics);
  if not (Report.correct outcome) then exit 1

(* ---- Command line --------------------------------------------------- *)

let arg args key =
  let rec go = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let usage () =
  prerr_endline
    "usage: e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--work DIR] \
     [--reference DIR]\n\
    \       e2e.exe compare --parent DIR --change DIR [--bench BENCHMARK.json]\n\
    \       e2e.exe smoke --bench BENCHMARK.json --reference DIR [--work DIR]";
  exit 2

let opts_of args =
  let num conv key default =
    match arg args key with
    | None -> default
    | Some v -> ( match conv v with Some x -> x | None -> usage ())
  in
  let workload = match arg args "--workload" with Some w -> w | None -> usage () in
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %S (one of %s)\n" workload (String.concat ", " workloads);
    exit 2
  end;
  {
    workload;
    seed = num int_of_string_opt "--seed" 42;
    seconds = num float_of_string_opt "--seconds" 20.0;
    trace = num (function "0" -> Some false | "1" -> Some true | _ -> None) "--trace" false;
    work = Option.value ~default:".bench_build/e2e" (arg args "--work");
    reference = Option.value ~default:"results" (arg args "--reference");
    tiny = false;
  }

let () =
  let main () =
    match List.tl (Array.to_list Sys.argv) with
    | "compare" :: args -> (
        match (arg args "--parent", arg args "--change") with
        | Some parent, Some change ->
            let bench = Option.value ~default:"BENCHMARK.json" (arg args "--bench") in
            if not (Compare.run ~bench ~parent ~change) then exit 1
        | _ -> usage ())
    | "smoke" :: args -> (
        match (arg args "--bench", arg args "--reference") with
        | Some bench, Some reference ->
            let work = Option.value ~default:".bench_build/e2e" (arg args "--work") in
            Util.mkdir_p work;
            let check workload ~trace ~ladder =
              let o = { workload; seed = 42; seconds = 1.0; trace; work; reference; tiny = true } in
              let _, outcome, metrics = measure ~ladder o in
              (Report.result_line outcome metrics, if trace then Some (trace_path o) else None)
            in
            if not (Smoke.run ~bench ~workloads ~check) then exit 1
        | _ -> usage ())
    | args ->
        let o = opts_of args in
        let have = Domain.recommended_domain_count () in
        if have < domains_needed o.workload then begin
          Printf.printf "%s not measured: it runs %d domains and this host has %d core(s)\n"
            o.workload (domains_needed o.workload) have;
          exit 3
        end;
        run o
  in
  try main () with
  | e ->
      Printf.eprintf "e2e: %s\n" (Printexc.to_string e);
      Printexc.print_backtrace stderr;
      exit 1
