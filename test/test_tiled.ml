open Linalg

let test_dag_sizes () =
  (* T tiles: T potrf + T(T-1)/2 trsm + T(T-1)/2 syrk + T(T-1)(T-2)/6 gemm. *)
  let count t =
    let tasks = Tiled.dag t in
    let p = ref 0 and tr = ref 0 and sy = ref 0 and ge = ref 0 in
    Array.iter
      (fun (tk : Tiled.task) ->
        match tk.op with
        | Tiled.Potrf _ -> incr p
        | Tiled.Trsm _ -> incr tr
        | Tiled.Syrk _ -> incr sy
        | Tiled.Gemm _ -> incr ge)
      tasks;
    (!p, !tr, !sy, !ge)
  in
  Alcotest.(check (pair (pair int int) (pair int int)))
    "t=4"
    ((4, 6), (6, 4))
    (let a, b, c, d = count 4 in
     ((a, b), (c, d)));
  let a, b, c, d = count 6 in
  Alcotest.(check int) "potrf" 6 a;
  Alcotest.(check int) "trsm" 15 b;
  Alcotest.(check int) "syrk" 15 c;
  Alcotest.(check int) "gemm" 20 d

let test_dag_program_order_valid () =
  (* Every task's predecessors have smaller ids (program order). *)
  Array.iter
    (fun (tk : Tiled.task) ->
      List.iter (fun p -> if p >= tk.id then Alcotest.failf "forward dep %d -> %d" tk.id p)
        tk.preds)
    (Tiled.dag 8)

let test_dag_succs_match_preds () =
  let tasks = Tiled.dag 6 in
  Array.iter
    (fun (tk : Tiled.task) ->
      List.iter
        (fun s ->
          if not (List.mem tk.id tasks.(s).Tiled.preds) then
            Alcotest.failf "succ %d of %d lacks back-edge" s tk.id)
        tk.succs)
    tasks

let test_first_task_is_potrf0 () =
  let tasks = Tiled.dag 5 in
  (match tasks.(0).Tiled.op with
  | Tiled.Potrf 0 -> ()
  | op -> Alcotest.failf "first task is %s" (Tiled.op_name op));
  Alcotest.(check (list int)) "no deps" [] tasks.(0).Tiled.preds

let test_trsm_depends_on_potrf () =
  let tasks = Tiled.dag 4 in
  Array.iter
    (fun (tk : Tiled.task) ->
      match tk.op with
      | Tiled.Trsm (_, k) ->
          let dep_ok =
            List.exists
              (fun p -> match tasks.(p).Tiled.op with Tiled.Potrf k' -> k' = k | _ -> false)
              tk.preds
          in
          if not dep_ok then Alcotest.failf "%s lacks potrf dep" (Tiled.op_name tk.op)
      | _ -> ())
    tasks

let test_critical_path_bounds () =
  let b = 10 in
  let total = Tiled.total_flops 6 ~b in
  let cp = Tiled.critical_path_flops 6 ~b in
  Alcotest.(check bool) "cp <= total" true (cp <= total);
  Alcotest.(check bool) "cp > single task" true (cp > Matrix.flops_potrf b);
  (* t=1: the only task is potrf. *)
  Alcotest.(check (float 1e-9)) "t=1 cp" (Matrix.flops_potrf b) (Tiled.critical_path_flops 1 ~b)

let test_tiled_factorize_matches_reference () =
  let r = Desim.Rng.make 77 in
  let a = Matrix.random_spd r 24 in
  let l_ref = Matrix.cholesky a in
  let l_tiled = Tiled.factorize a ~t:4 in
  let rel = Matrix.norm (Matrix.sub l_ref l_tiled) /. Matrix.norm l_ref in
  if rel > 1e-9 then Alcotest.failf "tiled vs reference: %g" rel

let test_tiled_reconstructs () =
  let r = Desim.Rng.make 78 in
  let a = Matrix.random_spd r 30 in
  let l = Tiled.factorize a ~t:5 in
  let llt = Matrix.matmul l (Matrix.transpose l) in
  let rel = Matrix.norm (Matrix.sub a llt) /. Matrix.norm a in
  if rel > 1e-9 then Alcotest.failf "LLt error %g" rel

let test_split_join_roundtrip () =
  let r = Desim.Rng.make 79 in
  let a = Matrix.random_spd r 12 in
  let low = Matrix.cholesky a in
  let ts = Tiled.split low ~t:3 in
  let back = Tiled.join ts in
  Alcotest.(check (float 0.0)) "roundtrip (lower)" 0.0 (Matrix.norm (Matrix.sub low back))

let prop_any_task_order_with_deps_is_correct =
  (* Execute the DAG in random dependency-respecting order; the factor
     must match the sequential one — validating that [preds] captures
     every true data dependence. *)
  QCheck.Test.make ~name:"random topological order factorizes correctly" ~count:10
    QCheck.small_nat
    (fun seed ->
      let r = Desim.Rng.make (seed + 5) in
      let t = 4 in
      let a = Matrix.random_spd r (t * 6) in
      let reference = Matrix.cholesky a in
      let tasks = Tiled.dag t in
      let ts = Tiled.split a ~t in
      let remaining = Array.map (fun (tk : Tiled.task) -> List.length tk.preds) tasks in
      let ready = ref (Array.to_list tasks |> List.filter (fun tk -> tk.Tiled.preds = [])) in
      let done_count = ref 0 in
      while !ready <> [] do
        let idx = Desim.Rng.int r (List.length !ready) in
        let tk = List.nth !ready idx in
        ready := List.filter (fun x -> x != tk) !ready;
        Tiled.apply_op ts tk.Tiled.op;
        incr done_count;
        List.iter
          (fun s ->
            remaining.(s) <- remaining.(s) - 1;
            if remaining.(s) = 0 then ready := tasks.(s) :: !ready)
          tk.Tiled.succs
      done;
      !done_count = Array.length tasks
      &&
      let l = Tiled.join ts in
      Matrix.norm (Matrix.sub l reference) /. Matrix.norm reference < 1e-9)

let suite =
  [
    Alcotest.test_case "dag task counts" `Quick test_dag_sizes;
    Alcotest.test_case "program order valid" `Quick test_dag_program_order_valid;
    Alcotest.test_case "succs match preds" `Quick test_dag_succs_match_preds;
    Alcotest.test_case "first task potrf(0)" `Quick test_first_task_is_potrf0;
    Alcotest.test_case "trsm depends on potrf" `Quick test_trsm_depends_on_potrf;
    Alcotest.test_case "critical path bounds" `Quick test_critical_path_bounds;
    Alcotest.test_case "tiled = reference factor" `Quick test_tiled_factorize_matches_reference;
    Alcotest.test_case "tiled reconstructs A" `Quick test_tiled_reconstructs;
    Alcotest.test_case "split/join roundtrip" `Quick test_split_join_roundtrip;
    QCheck_alcotest.to_alcotest prop_any_task_order_with_deps_is_correct;
  ]
