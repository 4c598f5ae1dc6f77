open Desim

let test_deterministic () =
  let a = Rng.make 7 and b = Rng.make 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.make 1 and b = Rng.make 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_split_independent () =
  let a = Rng.make 3 in
  let c = Rng.split a in
  let next_a = Rng.bits64 a in
  let next_c = Rng.bits64 c in
  Alcotest.(check bool) "split stream differs" true (next_a <> next_c)

let test_int_bounds () =
  let r = Rng.make 11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_float_bounds () =
  let r = Rng.make 12 in
  for _ = 1 to 1000 do
    let v = Rng.float r in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "out of range: %f" v
  done

let test_range () =
  let r = Rng.make 13 in
  for _ = 1 to 1000 do
    let v = Rng.range r 5.0 6.0 in
    if v < 5.0 || v >= 6.0 then Alcotest.failf "out of range: %f" v
  done

let test_shuffle_permutation () =
  let r = Rng.make 15 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_float_mean () =
  let r = Rng.make 16 in
  let s = Stats.create () in
  for _ = 1 to 10_000 do
    Stats.add s (Rng.float r)
  done;
  let m = Stats.mean s in
  if m < 0.48 || m > 0.52 then Alcotest.failf "uniform mean off: %f" m

let prop_int_uniformish =
  QCheck.Test.make ~name:"int bound respected for any bound" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let r = Rng.make seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "deterministic stream" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "range bounds" `Quick test_range;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "uniform mean near 0.5" `Quick test_float_mean;
    QCheck_alcotest.to_alcotest prop_int_uniformish;
  ]
