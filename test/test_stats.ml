open Desim

let feed values =
  let s = Stats.create () in
  List.iter (Stats.add s) values;
  s

let test_mean_std () =
  let s = feed [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  (* Sample stddev of this classic data set: sqrt(32/7). *)
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev s)

(* The extremes and the running sum surface through the summary line. *)
let test_minmax_sum () =
  let s = feed [ 3.0; -1.0; 10.0 ] in
  Alcotest.(check string) "min, max and the mean of the sum"
    "n=3 mean=4 sd=5.56776 min=-1 max=10"
    (Format.asprintf "%a" Stats.pp_summary s);
  Alcotest.(check int) "count" 3 (Stats.count s)

let test_percentiles () =
  let s = feed [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Stats.percentile s 25.0);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median s)

let test_percentile_interpolation () =
  let s = feed [ 0.0; 10.0 ] in
  Alcotest.(check (float 1e-9)) "p75 interpolates" 7.5 (Stats.percentile s 75.0)

let test_empty_stats () =
  let s = Stats.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Stats.mean s);
  Alcotest.(check (float 0.0)) "stddev of empty" 0.0 (Stats.stddev s);
  Alcotest.check_raises "percentile empty"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile s 50.0))

let test_single_sample () =
  let s = feed [ 42.0 ] in
  Alcotest.(check (float 0.0)) "mean" 42.0 (Stats.mean s);
  Alcotest.(check (float 0.0)) "stddev" 0.0 (Stats.stddev s);
  Alcotest.(check (float 0.0)) "median" 42.0 (Stats.median s)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean lies within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0))
    (fun values ->
      let s = feed values in
      let lo = List.fold_left Float.min infinity values
      and hi = List.fold_left Float.max neg_infinity values in
      Stats.mean s >= lo -. 1e-9 && Stats.mean s <= hi +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:200
    QCheck.(list_of_size Gen.(2 -- 50) (float_bound_exclusive 100.0))
    (fun values ->
      let s = feed values in
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ] in
      let vals = List.map (Stats.percentile s) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono vals)

let suite =
  [
    Alcotest.test_case "mean and stddev" `Quick test_mean_std;
    Alcotest.test_case "min/max/sum/count" `Quick test_minmax_sum;
    Alcotest.test_case "percentiles exact" `Quick test_percentiles;
    Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
    Alcotest.test_case "empty stats" `Quick test_empty_stats;
    Alcotest.test_case "single sample" `Quick test_single_sample;
    QCheck_alcotest.to_alcotest prop_mean_bounds;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
  ]
