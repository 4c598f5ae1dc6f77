(* Order statistics over measured samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* [quantile a p], p in [0, 1], linear interpolation between the two
   nearest ranks of the sorted samples.  NaN for no samples. *)
let quantile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = quantile a 0.5

(* First and third quartile the way Python's
   [statistics.quantiles(values, n=4)] computes them (its default
   "exclusive" method), so [compare] and the spread rule that judges the
   benchmark read the same numbers.  With one sample both are it. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* Samples strictly above the [p] quantile: how many observations a
   tail percentile rests on. *)
let beyond a p =
  let q = quantile a p in
  Array.fold_left (fun n v -> if v > q then n + 1 else n) 0 a

let ratio num den = if den = 0.0 then 0.0 else num /. den
