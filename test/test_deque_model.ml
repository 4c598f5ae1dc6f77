(* QCheck linearizability-style model test: Fiber.Deque — now a
   Chase–Lev lock-free ring with free-running atomic indices plus a
   CAS-swapped front segment for push_front — against a reference
   two-list functional deque, including wraparound of the indices,
   growth past the initial capacity (16), and the segment/ring boundary.
   Sequential use is exact (length included); the concurrent guarantees
   are exercised by test/fiber_smoke.ml under real domains. *)

(* Reference model: [front] head-first, [back] tail-first.  The owner
   end is the back, the thief end is the front. *)
type 'a model = { mutable front : 'a list; mutable back : 'a list }

let m_create () = { front = []; back = [] }

let m_push m x = m.back <- x :: m.back

let m_push_front m x = m.front <- x :: m.front

let m_pop m =
  match m.back with
  | x :: r ->
      m.back <- r;
      Some x
  | [] -> (
      match List.rev m.front with
      | [] -> None
      | x :: r ->
          m.front <- List.rev r;
          Some x)

let m_steal m =
  match m.front with
  | x :: r ->
      m.front <- r;
      Some x
  | [] -> (
      match List.rev m.back with
      | [] -> None
      | x :: r ->
          m.back <- List.rev r;
          Some x)

let m_length m = List.length m.front + List.length m.back

(* Sequential semantics of [steal_batch]: a front-segment element is
   returned alone (the segment is never batched); otherwise exactly
   [min max ((run+1)/2)] ring elements leave FIFO from the thief end —
   the first is the return value, the rest go to [spill] in order.
   Uncontended, the iterated per-element claims never fail, so the
   count is deterministic. *)
let m_steal_batch m ~max =
  if max <= 1 then (m_steal m, [])
  else
    match m.front with
    | x :: r ->
        m.front <- r;
        (Some x, [])
    | [] -> (
        match List.rev m.back with
        | [] -> (None, [])
        | ring ->
            let run = List.length ring in
            let want = min max ((run + 1) / 2) in
            let rec split k l =
              if k = 0 then ([], l)
              else
                match l with
                | [] -> ([], [])
                | x :: r ->
                    let a, b = split (k - 1) r in
                    (x :: a, b)
            in
            let taken, rest = split want ring in
            m.back <- List.rev rest;
            (Some (List.hd taken), List.tl taken))

type op = Push of int | Push_front of int | Pop | Steal | Steal_batch of int

let op_print = function
  | Push v -> Printf.sprintf "push %d" v
  | Push_front v -> Printf.sprintf "push_front %d" v
  | Pop -> "pop"
  | Steal -> "steal"
  | Steal_batch max -> Printf.sprintf "steal_batch %d" max

(* Push-biased op sequences so the live population regularly exceeds
   the initial capacity of 16 and the ring both grows and wraps. *)
let ops_arb =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 30 250)
        (frequency
           [
             (3, map (fun v -> Push v) small_nat);
             (2, map (fun v -> Push_front v) small_nat);
             (2, return Pop);
             (2, return Steal);
             (2, map (fun max -> Steal_batch max) (int_range 0 6));
           ]))
  in
  make ~print:(fun ops -> String.concat "; " (List.map op_print ops)) gen

let agree what step a b =
  if a <> b then
    QCheck.Test.fail_reportf "step %d: %s returned %s, model says %s" step what
      (match a with Some v -> string_of_int v | None -> "None")
      (match b with Some v -> string_of_int v | None -> "None")

let model_check =
  QCheck.Test.make ~name:"Fiber.Deque agrees with the two-list model"
    ~count:300 ops_arb (fun ops ->
      let d = Fiber.Deque.create () in
      let m = m_create () in
      List.iteri
        (fun step op ->
          (match op with
          | Push v ->
              Fiber.Deque.push d v;
              m_push m v
          | Push_front v ->
              Fiber.Deque.push_front d v;
              m_push_front m v
          | Pop -> agree "pop" step (Fiber.Deque.pop d) (m_pop m)
          | Steal -> agree "steal" step (Fiber.Deque.steal d) (m_steal m)
          | Steal_batch max ->
              let spilled = ref [] in
              let r =
                Fiber.Deque.steal_batch d ~max ~spill:(fun v ->
                    spilled := v :: !spilled)
              in
              let mr, mspill = m_steal_batch m ~max in
              agree "steal_batch first" step r mr;
              let spilled = List.rev !spilled in
              if spilled <> mspill then
                QCheck.Test.fail_reportf
                  "step %d: steal_batch %d spilled [%s], model says [%s]" step
                  max
                  (String.concat "; " (List.map string_of_int spilled))
                  (String.concat "; " (List.map string_of_int mspill)));
          if Fiber.Deque.length d <> m_length m then
            QCheck.Test.fail_reportf "step %d: length %d, model says %d" step
              (Fiber.Deque.length d) (m_length m))
        ops;
      (* Drain from alternating ends: contents must match element for
         element, not just in length. *)
      let i = ref 0 in
      while Fiber.Deque.length d > 0 || m_length m > 0 do
        if !i land 1 = 0 then agree "drain pop" !i (Fiber.Deque.pop d) (m_pop m)
        else agree "drain steal" !i (Fiber.Deque.steal d) (m_steal m);
        incr i
      done;
      true)

(* Free-running indices pass the capacity boundary many times while the
   live population stays below it: pure wraparound, no growth. *)
let test_wraparound_without_growth () =
  let d = Fiber.Deque.create () in
  let m = m_create () in
  for cycle = 0 to 9 do
    for k = 0 to 9 do
      let v = (cycle * 10) + k in
      Fiber.Deque.push d v;
      m_push m v
    done;
    for _ = 1 to 6 do
      Alcotest.(check (option int)) "pop" (m_pop m) (Fiber.Deque.pop d)
    done;
    for _ = 1 to 4 do
      Alcotest.(check (option int)) "steal" (m_steal m) (Fiber.Deque.steal d)
    done
  done;
  Alcotest.(check int) "drained" 0 (Fiber.Deque.length d)

(* Growth past the initial capacity: order must survive the resize. *)
let test_growth_past_capacity () =
  let d = Fiber.Deque.create () in
  for i = 0 to 99 do
    Fiber.Deque.push d i
  done;
  Alcotest.(check int) "all live" 100 (Fiber.Deque.length d);
  for i = 0 to 49 do
    Alcotest.(check (option int)) "steal FIFO" (Some i) (Fiber.Deque.steal d)
  done;
  for i = 99 downto 50 do
    Alcotest.(check (option int)) "pop LIFO" (Some i) (Fiber.Deque.pop d)
  done;
  Alcotest.(check (option int)) "pop empty" None (Fiber.Deque.pop d);
  Alcotest.(check (option int)) "steal empty" None (Fiber.Deque.steal d)

(* push_front interleaved with growth: the owner reaches a front-pushed
   element only after everything pushed at the back. *)
let test_push_front_ordering () =
  let d = Fiber.Deque.create () in
  Fiber.Deque.push_front d (-1);
  for i = 0 to 19 do
    Fiber.Deque.push d i
  done;
  Fiber.Deque.push_front d (-2);
  Alcotest.(check (option int)) "thief sees newest front" (Some (-2))
    (Fiber.Deque.steal d);
  Alcotest.(check (option int)) "then the older front" (Some (-1))
    (Fiber.Deque.steal d);
  for i = 19 downto 0 do
    Alcotest.(check (option int)) "owner pops back" (Some i)
      (Fiber.Deque.pop d)
  done;
  Alcotest.(check int) "empty" 0 (Fiber.Deque.length d)

(* Directed walk across the segment/ring boundary: the owner crosses
   from the ring into the front segment (oldest-first) and back, and
   thieves cross from the segment (newest-first) into the ring; both
   internal list reversals of the segment get exercised. *)
let test_segment_ring_boundary () =
  let d = Fiber.Deque.create () in
  let m = m_create () in
  let both_push v =
    Fiber.Deque.push d v;
    m_push m v
  and both_push_front v =
    Fiber.Deque.push_front d v;
    m_push_front m v
  in
  for v = 0 to 4 do
    both_push_front (100 + v)
  done;
  for v = 0 to 4 do
    both_push v
  done;
  (* Owner drains the ring, then continues into the segment: it must
     see 4,3,2,1,0 then the *oldest* front pushes 100,101,... *)
  for step = 0 to 6 do
    Alcotest.(check (option int))
      (Printf.sprintf "pop across boundary %d" step)
      (m_pop m) (Fiber.Deque.pop d)
  done;
  both_push_front 200;
  (* Thief: newest front first (200, then 104, 103, 102); the ring
     would follow if anything were left. *)
  for step = 0 to 3 do
    Alcotest.(check (option int))
      (Printf.sprintf "steal across boundary %d" step)
      (m_steal m) (Fiber.Deque.steal d)
  done;
  Alcotest.(check int) "drained" 0 (Fiber.Deque.length d);
  Alcotest.(check int) "model drained" 0 (m_length m)

(* The [length] snapshot must clamp its ring term: the owner's pop
   briefly publishes [bottom = top - 1] on the race-to-empty path, and a
   thief's CAS can advance [top] between the snapshot's two index reads
   — either way a raw [bottom - top] would go negative and drag the
   total below the (always non-negative) front-segment contribution.
   The owner here keeps the ring hovering around empty (one push, two
   pops) against a concurrent thief, so both windows are hit; a third
   domain samples [length] throughout.  fiber_smoke's deque stress
   samples the same invariant under heavier contention. *)
let test_length_never_negative () =
  let d = Fiber.Deque.create () in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          if Fiber.Deque.length d < 0 then Atomic.incr bad
        done)
  in
  let thief =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (Fiber.Deque.steal d)
        done)
  in
  for round = 1 to 20_000 do
    Fiber.Deque.push d round;
    if round land 3 = 0 then Fiber.Deque.push_front d (-round);
    ignore (Fiber.Deque.pop d);
    ignore (Fiber.Deque.pop d)
  done;
  Atomic.set stop true;
  Domain.join sampler;
  Domain.join thief;
  Alcotest.(check int) "length never negative" 0 (Atomic.get bad);
  let rec drain () =
    match Fiber.Deque.pop d with Some _ -> drain () | None -> ()
  in
  drain ();
  Alcotest.(check int) "drained exact" 0 (Fiber.Deque.length d)

(* Directed steal_batch shapes: steal-half on a short run, the spill
   order on a long one, segment precedence, and degradation to a plain
   steal at [max <= 1]. *)
let test_steal_batch_shapes () =
  let spills d ~max =
    let acc = ref [] in
    let r = Fiber.Deque.steal_batch d ~max ~spill:(fun v -> acc := v :: !acc) in
    (r, List.rev !acc)
  in
  (* Steal-half: run of 3 and max 8 claims (3+1)/2 = 2. *)
  let d = Fiber.Deque.create () in
  List.iter (Fiber.Deque.push d) [ 0; 1; 2 ];
  Alcotest.(check (pair (option int) (list int)))
    "half of a short run" (Some 0, [ 1 ]) (spills d ~max:8);
  Alcotest.(check (option int)) "victim keeps the rest" (Some 2)
    (Fiber.Deque.pop d);
  (* FIFO spill order on a long run: first returned, next max-1 spilled. *)
  let d = Fiber.Deque.create () in
  for i = 0 to 19 do
    Fiber.Deque.push d i
  done;
  Alcotest.(check (pair (option int) (list int)))
    "FIFO batch from the thief end"
    (Some 0, [ 1; 2; 3 ])
    (spills d ~max:4);
  Alcotest.(check (option int)) "next steal continues" (Some 4)
    (Fiber.Deque.steal d);
  (* A front-segment element is returned alone, never batched. *)
  let d = Fiber.Deque.create () in
  List.iter (Fiber.Deque.push d) [ 0; 1; 2; 3 ];
  Fiber.Deque.push_front d 100;
  Alcotest.(check (pair (option int) (list int)))
    "segment element alone" (Some 100, []) (spills d ~max:8);
  Alcotest.(check (pair (option int) (list int)))
    "then the ring batches" (Some 0, [ 1 ])
    (spills d ~max:2);
  (* max <= 1 degrades to a plain steal. *)
  Alcotest.(check (pair (option int) (list int)))
    "max 1 is steal" (Some 2, []) (spills d ~max:1);
  Alcotest.(check (pair (option int) (list int)))
    "max 0 is steal" (Some 3, []) (spills d ~max:0);
  Alcotest.(check (pair (option int) (list int)))
    "empty" (None, []) (spills d ~max:8)

(* Batched steals across the wraparound and growth boundaries: the
   free-running indices pass the capacity several times, and the batch
   spans a ring resize's re-laid-out buffer. *)
let test_steal_batch_boundaries () =
  let d = Fiber.Deque.create () in
  let m = m_create () in
  (* Advance the indices past the initial capacity with the live
     population below it, batching as we go. *)
  for cycle = 0 to 9 do
    for k = 0 to 9 do
      let v = (cycle * 10) + k in
      Fiber.Deque.push d v;
      m_push m v
    done;
    let spilled = ref [] in
    let r =
      Fiber.Deque.steal_batch d ~max:4 ~spill:(fun v -> spilled := v :: !spilled)
    in
    let mr, mspill = m_steal_batch m ~max:4 in
    Alcotest.(check (option int))
      (Printf.sprintf "wrap cycle %d first" cycle)
      mr r;
    Alcotest.(check (list int))
      (Printf.sprintf "wrap cycle %d spills" cycle)
      mspill (List.rev !spilled);
    for _ = 1 to 6 do
      Alcotest.(check (option int)) "wrap pop" (m_pop m) (Fiber.Deque.pop d)
    done
  done;
  (* Growth: push far past capacity, then batch straight across the
     grown buffer. *)
  for i = 1000 to 1099 do
    Fiber.Deque.push d i;
    m_push m i
  done;
  let spilled = ref [] in
  let r =
    Fiber.Deque.steal_batch d ~max:8 ~spill:(fun v -> spilled := v :: !spilled)
  in
  let mr, mspill = m_steal_batch m ~max:8 in
  Alcotest.(check (option int)) "grown first" mr r;
  Alcotest.(check (list int)) "grown spills" mspill (List.rev !spilled);
  let i = ref 0 in
  while m_length m > 0 do
    Alcotest.(check (option int))
      (Printf.sprintf "drain %d" !i)
      (m_pop m) (Fiber.Deque.pop d);
    incr i
  done;
  Alcotest.(check int) "drained" 0 (Fiber.Deque.length d)

(* Exactly-once under an owner working its end of a queue while
   [thieves] domains steal: every pushed value is claimed by exactly one
   party.  The owner pushes each value [v] and then makes its own move,
   [own v], which returns the value it claimed, if any.  Thief [i]
   raids with [steal i claim] (partially applied once per thief, so it
   can keep state; [claim] takes a batched raid's extras).  [pop] drains
   what is left once the owner is done.  fiber_smoke's deque
   stress exercises the same invariant with more thieves and mixed
   batch sizes. *)
let owner_race ?(thieves = 1) ~push ~own ~pop steal =
  let items = 30_000 in
  let seen = Array.init items (fun _ -> Atomic.make 0) in
  let claim v = Atomic.incr seen.(v) in
  let stop = Atomic.make false in
  let thief i =
    Domain.spawn (fun () ->
        let steal = steal i in
        while not (Atomic.get stop) do
          match steal claim with
          | Some v -> claim v
          | None -> Domain.cpu_relax ()
        done;
        (* Final sweep so nothing is left when the owner quit early. *)
        let rec sweep () =
          match steal claim with
          | Some v ->
              claim v;
              sweep ()
          | None -> ()
        in
        sweep ())
  in
  let ts = List.init thieves (fun i -> thief (i + 1)) in
  for v = 0 to items - 1 do
    push v;
    match own v with Some x -> claim x | None -> ()
  done;
  let rec drain () =
    match pop () with
    | Some x ->
        claim x;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  List.iter Domain.join ts;
  let missing = ref 0 and dup = ref 0 in
  Array.iter
    (fun c ->
      match Atomic.get c with
      | 0 -> incr missing
      | 1 -> ()
      | _ -> incr dup)
    seen;
  Alcotest.(check int) "no value lost" 0 !missing;
  Alcotest.(check int) "no value claimed twice" 0 !dup

(* The owner pops after every second push, racing the thief for the
   last element: the Chase–Lev race-to-empty and push-restore paths. *)
let deque_race steal =
  let d = Fiber.Deque.create () in
  owner_race
    ~push:(Fiber.Deque.push d)
    ~own:(fun v -> if v land 1 = 0 then Fiber.Deque.pop d else None)
    ~pop:(fun () -> Fiber.Deque.pop d)
    (fun _ claim -> steal d claim)

let test_steal_batch_owner_race () =
  deque_race (fun d claim -> Fiber.Deque.steal_batch d ~max:4 ~spill:claim)

let test_steal_owner_race () = deque_race (fun d _ -> Fiber.Deque.steal d)

(* Work-first joins rest on [Scheduler.take]: the owner pops, compares
   and re-pushes a non-matching task, and a [true] must be the only
   claim on that entry.  Here the owner of slot 0 takes each even value
   right after pushing it: the newest entry, which it wins unless a
   thief got there first.  After each odd push it takes the even value
   before it, which is already gone: the pop then draws the odd value
   and [take] must put it back, while two member thieves on slots 1 and
   2 steal throughout. *)
let test_scheduler_take_vs_steal () =
  let s = Fiber.Scheduler.create ~slots:3 in
  let take v = if Fiber.Scheduler.take s ~slot:0 v then Some v else None in
  let misses = ref 0 in
  owner_race ~thieves:2
    ~push:(Fiber.Scheduler.push s ~slot:0)
    ~own:(fun v ->
      if v land 1 = 0 then take v
      else begin
        if take (v - 1) = None then incr misses;
        None
      end)
    ~pop:(fun () -> Fiber.Scheduler.pop s ~slot:0)
    (fun i ->
      let rng = Random.State.make [| i |] in
      fun _ ->
        Fiber.Scheduler.steal_batch s ~slot:i ~max:1 ~spill:ignore
          ~rng:(fun () -> Random.State.bits rng));
  Alcotest.(check int) "a take of a gone entry never claims" 15_000 !misses;
  (* Sequentially, a miss leaves the queue as it was. *)
  List.iter (Fiber.Scheduler.push s ~slot:0) [ 1; 2; 3 ];
  Alcotest.(check bool) "take of a buried entry" false
    (Fiber.Scheduler.take s ~slot:0 2);
  Alcotest.(check (list (option int))) "order kept"
    [ Some 3; Some 2; Some 1; None ]
    (List.init 4 (fun _ -> Fiber.Scheduler.pop s ~slot:0))

let suite =
  [
    QCheck_alcotest.to_alcotest model_check;
    Alcotest.test_case "wraparound without growth" `Quick
      test_wraparound_without_growth;
    Alcotest.test_case "growth past capacity" `Quick test_growth_past_capacity;
    Alcotest.test_case "push_front ordering" `Quick test_push_front_ordering;
    Alcotest.test_case "segment/ring boundary" `Quick test_segment_ring_boundary;
    Alcotest.test_case "length clamps negative transients" `Quick
      test_length_never_negative;
    Alcotest.test_case "steal_batch shapes" `Quick test_steal_batch_shapes;
    Alcotest.test_case "steal_batch wrap/growth boundaries" `Quick
      test_steal_batch_boundaries;
    Alcotest.test_case "steal_batch owner race exactly-once" `Quick
      test_steal_batch_owner_race;
    Alcotest.test_case "owner pop vs steal exactly-once" `Quick
      test_steal_owner_race;
    Alcotest.test_case "Scheduler.take vs steals exactly-once" `Quick
      test_scheduler_take_vs_steal;
  ]
