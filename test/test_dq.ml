open Preempt_core

let rec pops n pop =
  if n = 0 then []
  else
    let x = pop () in
    x :: pops (n - 1) pop

(* Every element, front to back, leaving [q] empty. *)
let rec drain q = match Dq.pop_front q with Some x -> x :: drain q | None -> []

let test_fifo () =
  let q = Dq.create () in
  List.iter (Dq.push_back q) [ 1; 2; 3 ];
  Alcotest.(check (list (option int)))
    "fifo order"
    [ Some 1; Some 2; Some 3; None ]
    (pops 4 (fun () -> Dq.pop_front q))

let test_lifo () =
  let q = Dq.create () in
  List.iter (Dq.push_back q) [ 1; 2; 3 ];
  Alcotest.(check (list (option int)))
    "lifo order"
    [ Some 3; Some 2; Some 1 ]
    (pops 3 (fun () -> Dq.pop_back q))

let test_steal_pattern () =
  let q = Dq.create () in
  List.iter (Dq.push_back q) [ 1; 2; 3; 4 ];
  Alcotest.(check (option int)) "owner front" (Some 1) (Dq.pop_front q);
  Alcotest.(check (option int)) "thief back" (Some 4) (Dq.pop_back q);
  Alcotest.(check int) "two left" 2 (Dq.length q)

let prop_deque_model =
  (* Compare against a list model under random pushes and front/back pops. *)
  QCheck.Test.make ~name:"deque matches list model" ~count:300
    QCheck.(list (pair bool (pair bool small_nat)))
    (fun ops ->
      let q = Dq.create () in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (is_push, (front, v)) ->
          if is_push then begin
            Dq.push_back q v;
            model := !model @ [ v ]
          end
          else if front then begin
            let got = Dq.pop_front q in
            let expect =
              match !model with
              | [] -> None
              | x :: rest ->
                  model := rest;
                  Some x
            in
            if got <> expect then ok := false
          end
          else begin
            let got = Dq.pop_back q in
            let expect =
              match List.rev !model with
              | [] -> None
              | x :: rest ->
                  model := List.rev rest;
                  Some x
            in
            if got <> expect then ok := false
          end)
        ops;
      !ok && Dq.length q = List.length !model && drain q = !model)

let test_model_10k () =
  (* 10,000 seeded operations over the full API — pushes and pops from
     both ends — checked move-by-move against a list model.
     Deterministic (Desim.Rng), so a failure reproduces exactly. *)
  let rng = Desim.Rng.make 20260806 in
  let q = Dq.create () in
  let model = ref [] in
  let step op =
    match op with
    | 0 | 1 | 2 | 3 | 4 ->
        let v = Desim.Rng.int rng 50 in
        Dq.push_back q v;
        model := !model @ [ v ]
    | 5 | 6 -> (
        let got = Dq.pop_front q in
        match !model with
        | [] -> if got <> None then Alcotest.fail "pop_front on empty"
        | x :: rest ->
            model := rest;
            if got <> Some x then Alcotest.failf "pop_front: got wrong element"
        )
    | _ -> (
        let got = Dq.pop_back q in
        match List.rev !model with
        | [] -> if got <> None then Alcotest.fail "pop_back on empty"
        | x :: rest ->
            model := List.rev rest;
            if got <> Some x then Alcotest.failf "pop_back: got wrong element")
  in
  for i = 1 to 10_000 do
    step (Desim.Rng.int rng 10);
    if Dq.length q <> List.length !model then
      Alcotest.failf "length diverged at op %d" i
  done;
  Alcotest.(check (list int)) "final contents" !model (drain q)

let suite =
  [
    Alcotest.test_case "fifo" `Quick test_fifo;
    Alcotest.test_case "model x10k seeded" `Quick test_model_10k;
    Alcotest.test_case "lifo" `Quick test_lifo;
    Alcotest.test_case "steal pattern" `Quick test_steal_pattern;
    QCheck_alcotest.to_alcotest prop_deque_model;
  ]
