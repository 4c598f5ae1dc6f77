type op = Getrf of int | Trsm_l of int * int | Trsm_u of int * int | Gemm of int * int * int

type task = { id : int; op : op; preds : int list; succs : int list }

let reads = function
  | Getrf _ -> []
  | Trsm_l (k, _) -> [ (k, k) ]
  | Trsm_u (_, k) -> [ (k, k) ]
  | Gemm (i, j, k) -> [ (i, k); (k, j) ]

let writes = function
  | Getrf k -> (k, k)
  | Trsm_l (k, j) -> (k, j)
  | Trsm_u (i, k) -> (i, k)
  | Gemm (i, j, _) -> (i, j)

let dag t =
  if t <= 0 then invalid_arg "Lu.dag: t <= 0";
  let ops = ref [] in
  for k = 0 to t - 1 do
    ops := Getrf k :: !ops;
    for j = k + 1 to t - 1 do
      ops := Trsm_l (k, j) :: !ops
    done;
    for i = k + 1 to t - 1 do
      ops := Trsm_u (i, k) :: !ops
    done;
    for i = k + 1 to t - 1 do
      for j = k + 1 to t - 1 do
        ops := Gemm (i, j, k) :: !ops
      done
    done
  done;
  let ops = Array.of_list (List.rev !ops) in
  let n = Array.length ops in
  let last_writer : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  Array.iteri
    (fun id op ->
      let tiles = writes op :: reads op in
      let ps =
        List.sort_uniq compare
          (List.filter_map (fun tile -> Hashtbl.find_opt last_writer tile) tiles)
      in
      preds.(id) <- ps;
      List.iter (fun p -> succs.(p) <- id :: succs.(p)) ps;
      Hashtbl.replace last_writer (writes op) id)
    ops;
  Array.init n (fun id ->
      { id; op = ops.(id); preds = preds.(id); succs = List.rev succs.(id) })

let flops op ~b =
  let fb = float_of_int (b * b * b) in
  match op with
  | Getrf _ -> 2.0 *. fb /. 3.0
  | Trsm_l _ | Trsm_u _ -> fb
  | Gemm _ -> 2.0 *. fb

(* ------------------------------------------------------------------ *)
(* Real kernels. *)

let getrf m =
  let n = Matrix.dim m in
  for k = 0 to n - 1 do
    let pivot = Matrix.get m k k in
    if Float.abs pivot < 1e-12 then failwith "Lu.getrf: zero pivot";
    for i = k + 1 to n - 1 do
      Matrix.set m i k (Matrix.get m i k /. pivot);
      for j = k + 1 to n - 1 do
        Matrix.set m i j (Matrix.get m i j -. (Matrix.get m i k *. Matrix.get m k j))
      done
    done
  done

let trsm_l l b =
  (* L·X = B with unit-lower L: forward substitution per column of B. *)
  let n = Matrix.dim l in
  for c = 0 to n - 1 do
    for i = 0 to n - 1 do
      let s = ref (Matrix.get b i c) in
      for k = 0 to i - 1 do
        s := !s -. (Matrix.get l i k *. Matrix.get b k c)
      done;
      Matrix.set b i c !s
    done
  done

let trsm_u u b =
  (* X·U = B: forward substitution per row of B. *)
  let n = Matrix.dim u in
  for r = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref (Matrix.get b r j) in
      for k = 0 to j - 1 do
        s := !s -. (Matrix.get b r k *. Matrix.get u k j)
      done;
      Matrix.set b r j (!s /. Matrix.get u j j)
    done
  done

let gemm a b c =
  let n = Matrix.dim a in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (Matrix.get a i k *. Matrix.get b k j)
      done;
      Matrix.set c i j (Matrix.get c i j -. !s)
    done
  done

let random_dd rng n =
  let m = Matrix.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Matrix.set m i j (Desim.Rng.range rng (-1.0) 1.0)
    done;
    Matrix.set m i i (float_of_int n +. Desim.Rng.float rng)
  done;
  m

(* Tiled execution on a block matrix (reuses Tiled's splitter). *)
let factorize m ~t =
  let n = Matrix.dim m in
  if n mod t <> 0 then invalid_arg "Lu.factorize: dim not divisible by t";
  let b = n / t in
  let tile i j =
    let blk = Matrix.create b in
    for r = 0 to b - 1 do
      for c = 0 to b - 1 do
        Matrix.set blk r c (Matrix.get m ((i * b) + r) ((j * b) + c))
      done
    done;
    blk
  in
  let blocks = Array.init (t * t) (fun idx -> tile (idx / t) (idx mod t)) in
  let blk i j = blocks.((i * t) + j) in
  Array.iter
    (fun tk ->
      match tk.op with
      | Getrf k -> getrf (blk k k)
      | Trsm_l (k, j) -> trsm_l (blk k k) (blk k j)
      | Trsm_u (i, k) -> trsm_u (blk k k) (blk i k)
      | Gemm (i, j, k) -> gemm (blk i k) (blk k j) (blk i j))
    (dag t);
  let out = Matrix.create n in
  for i = 0 to t - 1 do
    for j = 0 to t - 1 do
      let blkij = blk i j in
      for r = 0 to b - 1 do
        for c = 0 to b - 1 do
          Matrix.set out ((i * b) + r) ((j * b) + c) (Matrix.get blkij r c)
        done
      done
    done
  done;
  out

let split_lu packed =
  let n = Matrix.dim packed in
  let l = Matrix.identity n in
  let u = Matrix.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j < i then Matrix.set l i j (Matrix.get packed i j)
      else Matrix.set u i j (Matrix.get packed i j)
    done
  done;
  (l, u)
