type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let int t bound =
  assert (bound > 0);
  let b = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  b mod bound

let float t =
  (* 53 random bits scaled into [0, 1). *)
  let b = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int b *. (1.0 /. 9007199254740992.0)

let range t lo hi = lo +. ((hi -. lo) *. float t)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
