(* Metrics, outcomes and the two output forms: the one-line JSON result
   that ends every run, and the result file [compare] reads. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  q1 : float;
  q3 : float;
  basis : string;  (** what the value rests on: repetitions, samples *)
}

(* The median over repetitions, with their quartiles. *)
let of_reps ?(each = "") name unit_ reps =
  let q1, q3 = Stat.quartiles reps in
  {
    name;
    unit_;
    value = Stat.median reps;
    q1;
    q3;
    basis = Printf.sprintf "median of %d rep(s)%s" (Array.length reps) each;
  }

(* A percentile of pooled samples, with the samples' quartiles and the
   count beyond the percentile. *)
let of_samples name unit_ ~p ~what samples =
  {
    name;
    unit_;
    value = Stat.quantile samples p;
    q1 = Stat.quantile samples 0.25;
    q3 = Stat.quantile samples 0.75;
    basis =
      Printf.sprintf "p%g of %d %s, %d beyond" (p *. 100.0) (Array.length samples) what
        (Stat.beyond samples p);
  }

let of_value name unit_ basis v = { name; unit_; value = v; q1 = v; q3 = v; basis }

type outcome = { attempted : int; failed : int }

let ok n = { attempted = n; failed = 0 }

let ( ++ ) a b =
  { attempted = a.attempted + b.attempted; failed = a.failed + b.failed }

let no_outcome = { attempted = 0; failed = 0 }

let correct o = o.failed = 0 && o.attempted > 0

(* What one workload pass measured. *)
type t = {
  metrics : metric list;
  outcome : outcome;
  reps : int;  (** measured repetitions *)
  op : string;  (** the unit of work [minor_words_per_op] counts per *)
  minor_words_per_op : float;
}

let print_metric m =
  Printf.printf "  %-30s %14.6g %-6s q1 %.6g, q3 %.6g; %s\n" m.name m.value m.unit_ m.q1 m.q3
    m.basis

let find name ms = List.find_opt (fun m -> m.name = name) ms

(* The last line of a run's standard output. *)
let result_line outcome metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct outcome) outcome.attempted outcome.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Util.json_str m.name)
              (Util.json_num m.value) (Util.json_str m.unit_))
          metrics))

(* The commit the checkout was made from, when it is a git checkout. *)
let git_commit () =
  try
    let head = String.trim (Util.read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> String.trim (Util.read_file (Filename.concat ".git" r))
    | _ -> head
  with Sys_error _ -> "unknown"

type run_info = {
  workload : string;
  seed : int;
  trace : bool;
  seconds : float;
  started : float;  (** Unix time the run began; orders runs for pairing *)
  wall_s : float;  (** the whole run, set-up included *)
}

(* One result file per run: the host, the run's parameters and every
   metric with its quartiles and basis. *)
let result_file info (r : t) outcome metrics =
  let metric_json m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s, \"q1\": %s, \"q3\": %s, \"basis\": %s}"
      (Util.json_str m.name) (Util.json_num m.value) (Util.json_str m.unit_)
      (Util.json_num m.q1) (Util.json_num m.q3) (Util.json_str m.basis)
  in
  Printf.sprintf
    "{\"schema\": \"preempt-e2e/1\", \"workload\": %s, \"seed\": %d, \"trace\": %d, \
     \"seconds\": %s, \"started\": %s, \"wall_s\": %s,\n\
    \ \"host\": {\"nproc\": %d, \"ocaml\": %s, \"commit\": %s},\n\
    \ \"reps\": %d, \"op\": %s, \"minor_words_per_op\": %s,\n\
    \ \"correct\": %b, \"attempted\": %d, \"failed\": %d,\n\
    \ \"metrics\": {\n  %s\n }}\n"
    (Util.json_str info.workload) info.seed
    (if info.trace then 1 else 0)
    (Util.json_num info.seconds) (Util.json_num info.started) (Util.json_num info.wall_s)
    (Domain.recommended_domain_count ())
    (Util.json_str Sys.ocaml_version) (Util.json_str (git_commit ())) r.reps
    (Util.json_str r.op) (Util.json_num r.minor_words_per_op)
    (correct outcome) outcome.attempted outcome.failed
    (String.concat ",\n  " (List.map metric_json metrics))
