type t = { n : int; a : float array }

let create n = { n; a = Array.make (n * n) 0.0 }

let dim m = m.n

let get m i j = m.a.((i * m.n) + j)

let set m i j v = m.a.((i * m.n) + j) <- v

let copy m = { n = m.n; a = Array.copy m.a }

let identity n =
  let m = create n in
  for i = 0 to n - 1 do
    set m i i 1.0
  done;
  m

let random_spd rng n =
  let g = create n in
  for i = 0 to (n * n) - 1 do
    g.a.(i) <- Desim.Rng.range rng (-1.0) 1.0
  done;
  let m = create n in
  (* M·Mᵀ + n·I: symmetric, strictly diagonally dominant enough. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (get g i k *. get g j k)
      done;
      set m i j (!s +. if i = j then float_of_int n else 0.0)
    done
  done;
  m

let matmul x y =
  assert (x.n = y.n);
  let n = x.n in
  let r = create n in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let xik = get x i k in
      if xik <> 0.0 then
        for j = 0 to n - 1 do
          set r i j (get r i j +. (xik *. get y k j))
        done
    done
  done;
  r

let transpose x =
  let n = x.n in
  let r = create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      set r j i (get x i j)
    done
  done;
  r

let sub x y =
  assert (x.n = y.n);
  { n = x.n; a = Array.init (Array.length x.a) (fun i -> x.a.(i) -. y.a.(i)) }

let norm x = sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x.a)

let potrf m =
  let n = m.n in
  for j = 0 to n - 1 do
    let s = ref (get m j j) in
    for k = 0 to j - 1 do
      s := !s -. (get m j k *. get m j k)
    done;
    if !s <= 0.0 then failwith "Matrix.potrf: not positive definite";
    let d = sqrt !s in
    set m j j d;
    for i = j + 1 to n - 1 do
      let s = ref (get m i j) in
      for k = 0 to j - 1 do
        s := !s -. (get m i k *. get m j k)
      done;
      set m i j (!s /. d)
    done
  done;
  (* Zero the strict upper triangle so the tile holds exactly L. *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      set m i j 0.0
    done
  done

let trsm l b =
  (* X·Lᵀ = B, i.e. for each row r of B: solve L·xᵀ = bᵀ by forward
     substitution (L is lower triangular). *)
  let n = l.n in
  for r = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref (get b r j) in
      for k = 0 to j - 1 do
        s := !s -. (get l j k *. get b r k)
      done;
      set b r j (!s /. get l j j)
    done
  done

let syrk a c =
  let n = a.n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (get a i k *. get a j k)
      done;
      set c i j (get c i j -. !s)
    done
  done

let gemm a b c =
  let n = a.n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (get a i k *. get b j k)
      done;
      set c i j (get c i j -. !s)
    done
  done

let cholesky a =
  let r = copy a in
  potrf r;
  r

let flops_potrf b = float_of_int (b * b * b) /. 3.0

let flops_trsm b = float_of_int (b * b * b)

let flops_syrk b = float_of_int (b * b * b)

let flops_gemm b = 2.0 *. float_of_int (b * b * b)
