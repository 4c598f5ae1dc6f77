type t = {
  mutable data : float array;
  mutable size : int;
  mutable total : float;
  mutable sq_total : float;
  mutable lo : float;
  mutable hi : float;
}

let create () =
  { data = [||]; size = 0; total = 0.0; sq_total = 0.0; lo = infinity; hi = neg_infinity }

let add t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let nd = Array.make (if cap = 0 then 16 else cap * 2) 0.0 in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.total <- t.total +. x;
  t.sq_total <- t.sq_total +. (x *. x);
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.size

let mean t = if t.size = 0 then 0.0 else t.total /. float_of_int t.size

let stddev t =
  if t.size < 2 then 0.0
  else begin
    let n = float_of_int t.size in
    let m = t.total /. n in
    let var = (t.sq_total -. (n *. m *. m)) /. (n -. 1.0) in
    if var < 0.0 then 0.0 else sqrt var
  end

let samples t = Array.sub t.data 0 t.size

let percentile t p =
  if t.size = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = samples t in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median t = percentile t 50.0

let pp_summary ppf t =
  Format.fprintf ppf "n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g" t.size (mean t) (stddev t)
    (if t.size = 0 then Float.nan else t.lo)
    (if t.size = 0 then Float.nan else t.hi)
