(** Shared output helpers for the experiment harnesses. *)

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheading title = Printf.printf "\n-- %s --\n" title

(* Render a series table: first column is the x value, one column per
   line of the figure. *)
let table ~x_label ~columns ~rows ~cell =
  let w = 24 in
  Printf.printf "%-10s" x_label;
  List.iter (fun c -> Printf.printf "%*s" w c) columns;
  print_newline ();
  List.iter
    (fun r ->
      Printf.printf "%-10s" (fst r);
      List.iteri (fun i _ -> Printf.printf "%*s" w (cell (snd r) i)) columns;
      print_newline ())
    rows

let us v = Printf.sprintf "%.2f us" (v *. 1e6)

let pct v = Printf.sprintf "%.2f%%" (v *. 100.0)

let seconds v = Printf.sprintf "%.3f s" v

(* ------------------------------------------------------------------ *)
(* [par_map f xs] is [List.map f xs], with the calls spread over
   [min (Domain.recommended_domain_count ()) (List.length xs)] domains,
   the caller's included (on one core, the caller runs them all).  Each domain claims the next job from an
   atomic index, so a long job does not hold up the short ones behind
   it.  Results come back in list order.  Every job runs, and every
   helper domain is joined, before anything is returned or raised; if
   jobs raised, the first of them in list order is re-raised, as
   [List.map] would.

   Contract: [f x] builds its own engine, kernel, runtime and RNG, and
   reads or writes no mutable state shared with other jobs — no [Obs]
   hook, no printing, no files.  The simulation libraries keep no
   top-level mutable state a job could write: the only top-level
   mutable values are [Desim.Heap]'s sentinel handle, which is never
   written, [Chart.glyphs] and [Oskern.Types.nice_weight]'s table, which
   are only read, and the [Obs] refs below, which the front end sets
   before a run.  So a point computes the same bits on any domain, and
   the sweep the same results as [List.map]. *)
let par_map f xs =
  let jobs = Array.of_list xs in
  let n = Array.length jobs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some
          (match f jobs.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let domains = min (Domain.recommended_domain_count ()) n in
  let helpers = List.init (max 0 (domains - 1)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
       results)

(* ------------------------------------------------------------------ *)
(* Observability requests (--metrics / --chrome-trace) from the repro
   and bench front ends.  Experiments opt in by creating their configs
   through [Obs.config] and calling [Obs.capture rt] after each run; the
   front end then calls [Obs.report ()] once, which prints the metrics
   of the last captured run and/or writes its Chrome trace, rendered
   from that run's flight record. *)
module Obs = struct
  let metrics : bool ref = ref false

  let chrome_trace : string option ref = ref None

  let requested () = !metrics || !chrome_trace <> None

  (* Events per recorder ring when a Chrome trace is requested.  The
     kernel's events all land in the global ring, the fullest one: the
     last run of Fig. 4's full preset (112 workers, 100 intervals) puts
     11.6k events there, Table 1's 2k, so neither wraps. *)
  let trace_capacity = 16_384

  let config (c : Preempt_core.Config.t) =
    let c = if !metrics then { c with Preempt_core.Config.metrics_enabled = true } else c in
    if !chrome_trace <> None then
      { c with Preempt_core.Config.recorder_enabled = true; recorder_capacity = trace_capacity }
    else c

  (* Latest instrumented run. *)
  let last : Preempt_core.Runtime.t option ref = ref None

  let capture rt = if requested () then last := Some rt

  let report () =
    match !last with
    | None ->
        if requested () then
          print_endline
            "(--metrics/--chrome-trace: this experiment has no instrumented runtime run)"
    | Some rt ->
        let snap = Preempt_core.Runtime.metrics rt in
        if !metrics then begin
          subheading "runtime metrics (--metrics, last configuration measured)";
          print_string (Preempt_core.Metrics.summary snap)
        end;
        (match !chrome_trace with
        | Some path ->
            let events =
              Chrome_trace.of_flight ~metrics:snap (Preempt_core.Runtime.flight_events rt)
            in
            Chrome_trace.write ~path events;
            Printf.printf
              "chrome trace: %d events -> %s (load in chrome://tracing or ui.perfetto.dev)\n"
              (List.length events) path
        | None -> ());
        last := None
end
