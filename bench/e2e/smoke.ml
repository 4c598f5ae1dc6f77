(* The bench-smoke check: every workload at a tiny scale.  Each run's
   final JSON line must name every metric BENCHMARK.json declares for
   it, once, with the declared unit and a finite value, and report
   correct outputs; each traced pass must write a valid Chrome trace. *)

module Json = Experiments.Chrome_trace.Json

let parse what s =
  match Json.parse s with Ok j -> j | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let names_units bench key =
  match Json.member key bench with
  | Some (Json.Arr ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
        ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

(* [check w ~trace ~ladder] runs workload [w] and returns its final
   output line and, for a traced run, the trace it wrote. *)
let run ~bench ~workloads ~check =
  let bench = parse bench (Util.read_file bench) in
  let e2e = names_units bench "end_to_end" and layers = names_units bench "per_layer" in
  let declared =
    match Json.member "workloads" bench with
    | Some (Json.Arr ws) ->
        List.filter_map (fun w -> match Json.member "name" w with Some (Json.Str n) -> Some n | _ -> None) ws
    | _ -> []
  in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> print_endline ("bench-smoke: FAIL " ^ s); ok := false) fmt in
  if declared <> workloads then
    fail "BENCHMARK.json names workloads [%s], the benchmark runs [%s]" (String.concat "; " declared)
      (String.concat "; " workloads);
  let check_line what ?expect line =
    let j = parse what line in
    let keys = match j with Json.Obj kv -> List.map fst kv | _ -> [] in
    if List.sort compare keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
      fail "%s: result keys are [%s]" what (String.concat "; " keys);
    if Json.member "correct" j <> Some (Json.Bool true) then fail "%s: outputs not correct" what;
    match (expect, Json.member "metrics" j) with
    | None, _ -> ()
    | Some expect, Some (Json.Obj kv) ->
        List.iter
          (fun (name, unit_) ->
            match List.filter (fun (k, _) -> k = name) kv with
            | [ (_, m) ] -> (
                if Json.member "unit" m <> Some (Json.Str unit_) then
                  fail "%s: %s lacks unit %s" what name unit_;
                match Json.member "value" m with
                | Some (Json.Num v) when Float.is_finite v -> ()
                | _ -> fail "%s: %s has no finite value" what name)
            | l -> fail "%s: %s printed %d times" what name (List.length l))
          expect;
        List.iter
          (fun (k, _) -> if not (List.mem_assoc k expect) then fail "%s: undeclared metric %s" what k)
          kv
    | Some _, _ -> fail "%s: no metrics object" what
  in
  List.iteri
    (fun i w ->
      let line, _ = check w ~trace:false ~ladder:false in
      check_line (w ^ " untraced") ~expect:e2e line;
      (* The ladder is the same in every traced run: measure it once. *)
      let ladder = i = 0 in
      let line, trace = check w ~trace:true ~ladder in
      check_line (w ^ " traced") ?expect:(if ladder then Some layers else None) line;
      Option.iter
        (fun path ->
          (match Experiments.Chrome_trace.validate (Util.read_file path) with
          | Ok n -> Printf.printf "bench-smoke: %s trace valid, %d events\n" w n
          | Error e -> fail "%s: trace %s invalid: %s" w path e);
          Sys.remove path)
        trace)
    workloads;
  if !ok then print_endline "bench-smoke: ok";
  !ok
