(* [compare]: the parent's result files against the change's, one row
   per workload and end-to-end metric, judged with the bounds in
   BENCHMARK.json.

   Runs are paired in the order they started (run the two sides
   alternately, same seeds).  A row reads
   - improved: the change wins at least nine tenths of the pairs and the
     medians differ by more than the parent's quartile distance;
   - unresolved: either side's quartile distance, as a share of its
     median, is wider than the bound, unless every change run is better
     (improved) or worse (regressed) than every parent run;
   - regressed: the change's median is worse than the parent's by more
     than the bound;
   - unchanged: otherwise. *)

module Json = Experiments.Chrome_trace.Json

type run = {
  workload : string;
  trace : bool;
  started : float;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let num = function Some (Json.Num v) -> v | _ -> Float.nan

let load_run path =
  match Json.parse (Util.read_file path) with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j ->
      {
        workload = (match Json.member "workload" j with Some (Json.Str w) -> w | _ -> "?");
        trace = num (Json.member "trace" j) = 1.0;
        started = num (Json.member "started" j);
        attempted = int_of_float (num (Json.member "attempted" j));
        failed = int_of_float (num (Json.member "failed" j));
        values =
          (match Json.member "metrics" j with
          | Some (Json.Obj kv) -> List.map (fun (k, m) -> (k, num (Json.member "value" m))) kv
          | _ -> []);
      }

let load_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.map (fun f -> load_run (Filename.concat dir f))
  |> List.filter (fun r -> not r.trace)
  |> List.sort (fun a b -> Float.compare a.started b.started)

type bound = { b_name : string; b_unit : string; lower : bool; bound : float }

let bounds bench =
  match Json.parse (Util.read_file bench) with
  | Error e -> failwith (Printf.sprintf "%s: %s" bench e)
  | Ok j -> (
      match Json.member "end_to_end" j with
      | Some (Json.Arr ms) ->
          List.map
            (fun m ->
              {
                b_name = (match Json.member "name" m with Some (Json.Str n) -> n | _ -> "?");
                b_unit = (match Json.member "unit" m with Some (Json.Str u) -> u | _ -> "?");
                lower = Json.member "better" m = Some (Json.Str "lower");
                bound = num (Json.member "bound" m);
              })
            ms
      | _ -> failwith (bench ^ ": no end_to_end metrics"))

type side = { median : float; q1 : float; q3 : float }

let side vs =
  let q1, q3 = Stat.quartiles vs in
  { median = Stat.median vs; q1; q3 }

(* How much worse [c] is than [p], as a share of [p]; negative when
   better. *)
let worse b p c = (if b.lower then c -. p else p -. c) /. Float.abs p

let verdict b ~parent ~change =
  let p = side parent and c = side change in
  let spread s = (s.q3 -. s.q1) /. Float.abs s.median in
  let wide = Float.max (spread p) (spread c) > b.bound in
  let n = Stdlib.min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to n - 1 do
    if worse b parent.(i) change.(i) < 0.0 then incr wins
  done;
  let every f = Array.for_all (fun c -> Array.for_all (fun p -> f (worse b p c)) parent) change in
  let d = worse b p.median c.median in
  let v =
    if n > 0 && 10 * !wins >= 9 * n && Float.abs (c.median -. p.median) > p.q3 -. p.q1 then
      "improved"
    else if d > b.bound && ((not wide) || every (fun w -> w > 0.0)) then "regressed"
    else if wide && not (every (fun w -> w < 0.0)) then "unresolved"
    else "unchanged"
  in
  (v, d, !wins, n, p, c)

let run ~bench ~parent ~change =
  let bs = bounds bench in
  let p = load_dir parent and c = load_dir change in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (p @ c))
  in
  let ok = ref true in
  Printf.printf "%-14s %-12s %-5s %30s %30s %8s %6s %6s  %s\n" "workload" "metric" "unit"
    "parent median [q1, q3]" "change median [q1, q3]" "worse" "bound" "wins" "verdict";
  List.iter
    (fun w ->
      let pw = List.filter (fun r -> r.workload = w) p
      and cw = List.filter (fun r -> r.workload = w) c in
      List.iter
        (fun b ->
          let values runs =
            Array.of_list
              (List.filter_map
                 (fun r ->
                   match List.assoc_opt b.b_name r.values with
                   | Some v when Float.is_finite v -> Some v
                   | _ -> None)
                 runs)
          in
          let pv = values pw and cv = values cw in
          if pv = [||] || cv = [||] then
            Printf.printf "%-14s %-12s %-5s  (%d parent / %d change run(s))\n" w b.b_name b.b_unit
              (Array.length pv) (Array.length cv)
          else begin
            let v, d, wins, n, ps, cs = verdict b ~parent:pv ~change:cv in
            if v = "regressed" then ok := false;
            let cell s = Printf.sprintf "%.5g [%.5g, %.5g]" s.median s.q1 s.q3 in
            Printf.printf "%-14s %-12s %-5s %30s %30s %+7.1f%% %5.0f%% %3d/%-2d  %s\n" w b.b_name
              b.b_unit (cell ps) (cell cs) (100.0 *. d) (100.0 *. b.bound) wins n v
          end)
        bs;
      let share runs =
        let a = List.fold_left (fun n r -> n + r.attempted) 0 runs in
        let f = List.fold_left (fun n r -> n + r.failed) 0 runs in
        (f, a, Stat.ratio (float_of_int f) (float_of_int a))
      in
      let fp, ap, sp = share pw and fc, ac, sc = share cw in
      Printf.printf "%-14s failed_share: parent %d/%d (%.3g), change %d/%d (%.3g): %s\n" w fp ap sp
        fc ac sc
        (if sc > sp then "the change fails more"
         else if sc < sp then "the change fails less"
         else "the same");
      if sc > sp then ok := false)
    workloads;
  !ok
