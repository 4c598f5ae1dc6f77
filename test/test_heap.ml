open Desim

(* [min_key] then [pop]: the dispatch loop's own pair of calls. *)
let pop_min h =
  let k = Heap.min_key h in
  (k, Heap.pop h)

let test_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.check_raises "min_key raises" Not_found (fun () -> ignore (Heap.min_key h));
  Alcotest.check_raises "pop raises" Not_found (fun () -> ignore (Heap.pop h))

let test_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let out = List.init 5 (fun _ -> fst (pop_min h)) in
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] out

let test_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v) [ "a"; "b"; "c" ];
  Heap.push h 0.5 "first";
  let out = List.init 4 (fun _ -> Heap.pop h) in
  Alcotest.(check (list string)) "tie order is FIFO" [ "first"; "a"; "b"; "c" ] out

let test_interleaved () =
  let h = Heap.create () in
  Heap.push h 2.0 2;
  Heap.push h 1.0 1;
  Alcotest.(check int) "min" 1 (Heap.pop h);
  Heap.push h 0.5 0;
  Alcotest.(check int) "new min" 0 (Heap.pop h);
  Alcotest.(check int) "last" 2 (Heap.pop h)

let prop_heap_sort =
  QCheck.Test.make ~name:"heap sorts any float list" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun floats ->
      let h = Heap.create () in
      List.iter (fun f -> Heap.push h f ()) floats;
      let popped = List.init (List.length floats) (fun _ -> fst (pop_min h)) in
      popped = List.sort compare floats)

let prop_stable =
  QCheck.Test.make ~name:"equal keys pop FIFO" ~count:100
    QCheck.(small_nat)
    (fun n ->
      let n = n + 1 in
      let h = Heap.create () in
      for i = 0 to n - 1 do
        Heap.push h 1.0 i
      done;
      let popped = List.init n (fun _ -> Heap.pop h) in
      popped = List.init n Fun.id)

(* Unit coverage of the lazy-cancellation surface. *)
let test_cancel_basic () =
  let h = Heap.create () in
  Heap.push h 1.0 "keep1";
  let hn = Heap.push_handle h 0.5 "dropped" in
  Heap.push h 2.0 "keep2";
  Alcotest.(check bool) "pending before" true (Heap.pending hn);
  Alcotest.(check int) "length counts it" 3 (Heap.length h);
  Alcotest.(check bool) "cancel" true (Heap.cancel hn);
  Alcotest.(check bool) "cancel twice" false (Heap.cancel hn);
  Alcotest.(check bool) "not pending after" false (Heap.pending hn);
  Alcotest.(check int) "length excludes tombstone" 2 (Heap.length h);
  Alcotest.(check string) "tombstone skipped" "keep1" (Heap.pop h);
  Alcotest.(check string) "rest intact" "keep2" (Heap.pop h);
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_cancel_popped () =
  let h = Heap.create () in
  let hn = Heap.push_handle h 1.0 () in
  ignore (Heap.pop h);
  Alcotest.(check bool) "popped not pending" false (Heap.pending hn);
  Alcotest.(check bool) "cancel after pop" false (Heap.cancel hn)

let test_all_cancelled () =
  let h = Heap.create () in
  let hs = List.init 100 (fun i -> Heap.push_handle h (float_of_int i) i) in
  List.iter (fun hn -> ignore (Heap.cancel hn)) hs;
  Alcotest.(check bool) "only tombstones = empty" true (Heap.is_empty h);
  Alcotest.check_raises "min_key skips them all" Not_found (fun () -> ignore (Heap.min_key h));
  (* Compaction path: keep pushing over a tombstone majority. *)
  for i = 0 to 199 do
    Heap.push h (float_of_int i) i
  done;
  Alcotest.(check int) "live survive compaction" 200 (Heap.length h);
  Alcotest.(check int) "min live" 0 (Heap.pop h)

(* Model test: random interleavings of every heap operation against a
   reference list of live (key, seq, id) elements.  Keys come from a
   small set so ties are common and the (key, seq) tie-break, [top_seq],
   [tie_seqs] and [pop_tie] (the schedule controller's path) all see
   multi-way ties.  [Burst] pushes and cancels more than 64 handles at
   once, so the next push crosses the [dead > 64 && dead > live]
   compaction; cancels pick from every handle ever issued, so stale
   handles (popped, cancelled or compacted away, their slots reused)
   are exercised too.  After every operation each issued handle must be
   pending exactly when its element is live. *)
type op =
  | Push of int (* plain push, key index *)
  | Push_h of int (* push_handle, key index *)
  | Pop
  | Cancel of int (* any issued handle, live or stale *)
  | Top_seq
  | Tie_seqs
  | Pop_tie of int
  | Burst of int (* push_handle n elements, then cancel them all *)

let show_op = function
  | Push k -> Printf.sprintf "Push %d" k
  | Push_h k -> Printf.sprintf "Push_h %d" k
  | Pop -> "Pop"
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Top_seq -> "Top_seq"
  | Tie_seqs -> "Tie_seqs"
  | Pop_tie j -> Printf.sprintf "Pop_tie %d" j
  | Burst n -> Printf.sprintf "Burst %d" n

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> Push k) (int_bound 7));
        (4, map (fun k -> Push_h k) (int_bound 7));
        (3, return Pop);
        (3, map (fun i -> Cancel i) (int_bound 1000));
        (1, return Top_seq);
        (1, return Tie_seqs);
        (2, map (fun j -> Pop_tie j) (int_bound 3));
        (1, map (fun n -> Burst n) (int_range 65 100));
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 50 250) op_gen)

let prop_cancel_model =
  QCheck.Test.make ~name:"lazy-cancel heap matches reference model" ~count:200 ops_arb
    (fun ops ->
      let h = Heap.create () in
      (* model: (key, seq) of every live element, unsorted; each element's
         value is its seq *)
      let model = ref [] in
      let live = Hashtbl.create 64 in
      let handles = ref [||] and nhandles = ref 0 in
      let next = ref 0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let add key ~cancellable =
        let seq = !next in
        incr next;
        if cancellable then begin
          let hn = Heap.push_handle h key seq in
          if !nhandles = Array.length !handles then
            handles := Array.append !handles (Array.make (max 16 !nhandles) (seq, hn));
          !handles.(!nhandles) <- (seq, hn);
          incr nhandles
        end
        else Heap.push h key seq;
        expect (Heap.last_seq h = seq);
        model := (key, seq) :: !model;
        Hashtbl.replace live seq ()
      in
      let remove seq =
        model := List.filter (fun (_, s) -> s <> seq) !model;
        Hashtbl.remove live seq
      in
      (* seqs of the live elements with the minimum key, ascending *)
      let ties () =
        match !model with
        | [] -> []
        | (k0, _) :: _ ->
            let k = List.fold_left (fun m (k, _) -> Float.min m k) k0 !model in
            List.sort compare (List.filter_map (fun (k', s) -> if k' = k then Some s else None) !model)
      in
      let cancel (seq, hn) =
        expect (Heap.cancel hn = Hashtbl.mem live seq);
        expect (not (Heap.cancel hn));
        remove seq
      in
      List.iter
        (fun op ->
          if !ok then begin
            (match op with
            | Push k -> add (float_of_int k /. 2.0) ~cancellable:false
            | Push_h k -> add (float_of_int k /. 2.0) ~cancellable:true
            | Pop -> (
                match ties () with
                | [] -> expect (match Heap.pop h with exception Not_found -> true | _ -> false)
                | s :: _ ->
                    expect (Heap.pop h = s);
                    remove s)
            | Cancel i -> if !nhandles > 0 then cancel !handles.(i mod !nhandles)
            | Top_seq -> (
                match ties () with
                | [] -> expect (match Heap.top_seq h with exception Not_found -> true | _ -> false)
                | s :: _ -> expect (Heap.top_seq h = s))
            | Tie_seqs ->
                let t = ties () in
                expect (Heap.tie_seqs h = Array.of_list t);
                expect (Heap.tie_count h = List.length t)
            | Pop_tie j -> (
                match ties () with
                | [] -> expect (match Heap.pop_tie h j with exception Not_found -> true | _ -> false)
                | t when j >= List.length t ->
                    expect
                      (match Heap.pop_tie h j with exception Invalid_argument _ -> true | _ -> false)
                | t ->
                    let s = List.nth t j in
                    expect (Heap.pop_tie h j = s);
                    remove s)
            | Burst n ->
                let first = !nhandles in
                for _ = 1 to n do
                  add (float_of_int (!next mod 8) /. 2.0) ~cancellable:true
                done;
                for b = first to !nhandles - 1 do
                  cancel !handles.(b)
                done);
            expect (Heap.length h = List.length !model);
            for b = 0 to !nhandles - 1 do
              let seq, hn = !handles.(b) in
              expect (Heap.pending hn = Hashtbl.mem live seq)
            done
          end)
        ops;
      (* Drain: remaining elements must pop in (key, seq) order. *)
      while !ok && not (Heap.is_empty h) do
        match ties () with
        | [] -> ok := false
        | s :: _ ->
            expect (List.mem (Heap.min_key h, s) !model);
            expect (Heap.pop h = s);
            remove s
      done;
      !ok && !model = [])

(* A handle outlives its element; the slot does not.  A stale handle
   must not cancel or mark the element that reused its slot. *)
let test_stale_handle () =
  let h = Heap.create () in
  let a = Heap.push_handle h 1.0 "a" in
  Alcotest.(check string) "pop a" "a" (Heap.pop h);
  let b = Heap.push_handle h 2.0 "b" in
  Alcotest.(check bool) "stale cancel after pop" false (Heap.cancel a);
  Alcotest.(check bool) "reuser still pending" true (Heap.pending b);
  Alcotest.(check bool) "cancel b" true (Heap.cancel b);
  let c = Heap.push_handle h 3.0 "c" in
  Alcotest.(check bool) "stale cancel after cancel" false (Heap.cancel b);
  Alcotest.(check bool) "c pending" true (Heap.pending c);
  Alcotest.(check int) "one live" 1 (Heap.length h);
  Alcotest.(check string) "c pops" "c" (Heap.pop h);
  Alcotest.(check bool) "c popped" false (Heap.pending c);
  Alcotest.(check bool) "a still stale" false (Heap.pending a)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "pop in key order" `Quick test_ordering;
    Alcotest.test_case "FIFO on equal keys" `Quick test_fifo_ties;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    Alcotest.test_case "cancel basics" `Quick test_cancel_basic;
    Alcotest.test_case "cancel after pop" `Quick test_cancel_popped;
    Alcotest.test_case "all cancelled + compaction" `Quick test_all_cancelled;
    Alcotest.test_case "stale handle after slot reuse" `Quick test_stale_handle;
    QCheck_alcotest.to_alcotest prop_heap_sort;
    QCheck_alcotest.to_alcotest prop_stable;
    QCheck_alcotest.to_alcotest prop_cancel_model;
  ]
