open Linalg

let rng () = Desim.Rng.make 321

let test_getrf_reconstructs () =
  let a = Lu.random_dd (rng ()) 10 in
  let packed = Matrix.copy a in
  Lu.getrf packed;
  let l, u = Lu.split_lu packed in
  let lu = Matrix.matmul l u in
  let rel = Matrix.norm (Matrix.sub a lu) /. Matrix.norm a in
  if rel > 1e-10 then Alcotest.failf "LU reconstruction error %g" rel

let test_trsm_l () =
  let r = rng () in
  let a = Lu.random_dd r 8 in
  let packed = Matrix.copy a in
  Lu.getrf packed;
  let l, _ = Lu.split_lu packed in
  let b0 = Lu.random_dd r 8 in
  let x = Matrix.copy b0 in
  Lu.trsm_l l x;
  let back = Matrix.matmul l x in
  let rel = Matrix.norm (Matrix.sub b0 back) /. Matrix.norm b0 in
  if rel > 1e-10 then Alcotest.failf "trsm_l error %g" rel

let test_trsm_u () =
  let r = rng () in
  let a = Lu.random_dd r 8 in
  let packed = Matrix.copy a in
  Lu.getrf packed;
  let _, u = Lu.split_lu packed in
  let b0 = Lu.random_dd r 8 in
  let x = Matrix.copy b0 in
  Lu.trsm_u u x;
  let back = Matrix.matmul x u in
  let rel = Matrix.norm (Matrix.sub b0 back) /. Matrix.norm b0 in
  if rel > 1e-10 then Alcotest.failf "trsm_u error %g" rel

let test_tiled_matches_reference () =
  let a = Lu.random_dd (rng ()) 24 in
  let reference = Matrix.copy a in
  Lu.getrf reference;
  let tiled = Lu.factorize a ~t:4 in
  let rel = Matrix.norm (Matrix.sub reference tiled) /. Matrix.norm reference in
  if rel > 1e-9 then Alcotest.failf "tiled vs reference %g" rel

let test_dag_counts () =
  (* T getrf + T(T-1) trsm_l + T(T-1) trsm_u... per k: (t-1-k) each, and
     (t-1-k)^2 gemms. *)
  let tasks = Lu.dag 4 in
  let count p = Array.fold_left (fun acc tk -> if p tk.Lu.op then acc + 1 else acc) 0 tasks in
  Alcotest.(check int) "getrf" 4 (count (function Lu.Getrf _ -> true | _ -> false));
  Alcotest.(check int) "trsm_l" 6 (count (function Lu.Trsm_l _ -> true | _ -> false));
  Alcotest.(check int) "trsm_u" 6 (count (function Lu.Trsm_u _ -> true | _ -> false));
  Alcotest.(check int) "gemm" 14 (count (function Lu.Gemm _ -> true | _ -> false))

let test_dag_program_order () =
  Array.iter
    (fun (tk : Lu.task) ->
      List.iter (fun p -> if p >= tk.id then Alcotest.failf "forward dep") tk.preds)
    (Lu.dag 6)

let test_total_flops_positive () =
  let total t =
    Array.fold_left (fun acc (tk : Lu.task) -> acc +. Lu.flops tk.op ~b:10) 0.0 (Lu.dag t)
  in
  Alcotest.(check bool) "flops grow with t" true (total 6 > total 4)

let prop_random_topo_order_correct =
  QCheck.Test.make ~name:"LU: random topological order is correct" ~count:8
    QCheck.small_nat
    (fun seed ->
      let r = Desim.Rng.make (seed + 11) in
      let t = 3 in
      let n = t * 6 in
      let a = Lu.random_dd r n in
      let reference = Matrix.copy a in
      Lu.getrf reference;
      (* Execute the DAG in a random dependency-respecting order on tiles. *)
      let b = n / t in
      let blocks =
        Array.init (t * t) (fun idx ->
            let i = idx / t and j = idx mod t in
            let blk = Matrix.create b in
            for rr = 0 to b - 1 do
              for cc = 0 to b - 1 do
                Matrix.set blk rr cc (Matrix.get a ((i * b) + rr) ((j * b) + cc))
              done
            done;
            blk)
      in
      let blk i j = blocks.((i * t) + j) in
      let tasks = Lu.dag t in
      let remaining = Array.map (fun (tk : Lu.task) -> List.length tk.preds) tasks in
      let ready = ref (Array.to_list tasks |> List.filter (fun tk -> tk.Lu.preds = [])) in
      while !ready <> [] do
        let idx = Desim.Rng.int r (List.length !ready) in
        let tk = List.nth !ready idx in
        ready := List.filter (fun x -> x != tk) !ready;
        (match tk.Lu.op with
        | Lu.Getrf k -> Lu.getrf (blk k k)
        | Lu.Trsm_l (k, j) -> Lu.trsm_l (blk k k) (blk k j)
        | Lu.Trsm_u (i, k) -> Lu.trsm_u (blk k k) (blk i k)
        | Lu.Gemm (i, j, k) -> Lu.gemm (blk i k) (blk k j) (blk i j));
        List.iter
          (fun s ->
            remaining.(s) <- remaining.(s) - 1;
            if remaining.(s) = 0 then ready := tasks.(s) :: !ready)
          tk.Lu.succs
      done;
      let out = Matrix.create n in
      for i = 0 to t - 1 do
        for j = 0 to t - 1 do
          for rr = 0 to b - 1 do
            for cc = 0 to b - 1 do
              Matrix.set out ((i * b) + rr) ((j * b) + cc) (Matrix.get (blk i j) rr cc)
            done
          done
        done
      done;
      Matrix.norm (Matrix.sub out reference) /. Matrix.norm reference < 1e-9)

let suite =
  [
    Alcotest.test_case "getrf reconstructs" `Quick test_getrf_reconstructs;
    Alcotest.test_case "trsm_l solves" `Quick test_trsm_l;
    Alcotest.test_case "trsm_u solves" `Quick test_trsm_u;
    Alcotest.test_case "tiled = reference" `Quick test_tiled_matches_reference;
    Alcotest.test_case "dag counts" `Quick test_dag_counts;
    Alcotest.test_case "dag program order" `Quick test_dag_program_order;
    Alcotest.test_case "flops monotone" `Quick test_total_flops_positive;
    QCheck_alcotest.to_alcotest prop_random_topo_order_correct;
  ]
