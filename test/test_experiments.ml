(* Shape-level regression tests for the experiment harnesses: these
   assert the qualitative claims of each figure/table at reduced scale,
   so a refactor that breaks a reproduced phenomenon fails loudly. *)

open Experiments

let test_fig4_shapes () =
  let strategies = Fig4_interrupt.strategies in
  ignore strategies;
  let mean ~workers ~strategy =
    (Fig4_interrupt.measure ~workers ~strategy ~intervals:30).Fig4_interrupt.mean
  in
  let naive1 = mean ~workers:1 ~strategy:Preempt_core.Config.Per_worker_creation in
  let naive32 = mean ~workers:32 ~strategy:Preempt_core.Config.Per_worker_creation in
  let aligned32 = mean ~workers:32 ~strategy:Preempt_core.Config.Per_worker_aligned in
  let chain32 = mean ~workers:32 ~strategy:Preempt_core.Config.Per_process_chain in
  let one_to_all32 =
    mean ~workers:32 ~strategy:Preempt_core.Config.Per_process_one_to_all
  in
  (* Naive grows with workers; aligned stays flat. *)
  if naive32 < 4.0 *. naive1 then
    Alcotest.failf "naive contention missing: %g -> %g" naive1 naive32;
  if aligned32 > naive1 *. 1.5 then Alcotest.failf "aligned not flat: %g" aligned32;
  (* Chain flat but above aligned; one-to-all contends. *)
  if chain32 <= aligned32 then Alcotest.fail "chain should cost more than aligned";
  if chain32 > 3.0 *. aligned32 then Alcotest.failf "chain not flat: %g" chain32;
  if one_to_all32 < 2.0 *. chain32 then
    Alcotest.failf "one-to-all should contend: %g vs chain %g" one_to_all32 chain32

let test_table1_ordering () =
  let r = Table1_preempt_cost.measure Oskern.Machine.skylake "Skylake" ~preemptions:100 in
  let open Table1_preempt_cost in
  Alcotest.(check bool) "1:1 < signal-yield" true (r.one_to_one < r.signal_yield);
  Alcotest.(check bool) "signal-yield < KLT-switching" true
    (r.signal_yield < r.klt_switching);
  (* Magnitudes within 2x of the paper's Skylake numbers. *)
  let near paper v = v > paper /. 2.0 && v < paper *. 2.0 in
  Alcotest.(check bool) "1:1 ~2.8us" true (near 2.8e-6 r.one_to_one);
  Alcotest.(check bool) "sy ~3.5us" true (near 3.5e-6 r.signal_yield);
  Alcotest.(check bool) "ks ~9.9us" true (near 9.9e-6 r.klt_switching)

let test_fig6_ordering () =
  (* At a 100us interval on Skylake: timer-only ~ signal-yield, and each
     KLT-switching optimization strictly reduces overhead. *)
  let run variant =
    let baseline = 0.05 in
    let t =
      Fig6_overhead.run_once Oskern.Machine.skylake ~workers:8 ~threads_per_worker:4
        ~per_thread:(baseline /. 4.0) ~variant ~interval:(Some 1e-4)
    in
    let base =
      Fig6_overhead.run_once Oskern.Machine.skylake ~workers:8 ~threads_per_worker:4
        ~per_thread:(baseline /. 4.0) ~variant:Fig6_overhead.Timer_only ~interval:None
    in
    (t /. base) -. 1.0
  in
  let timer_only = run Fig6_overhead.Timer_only in
  let sy = run Fig6_overhead.Signal_yield_v in
  let naive = run Fig6_overhead.Klt_naive in
  let futex = run Fig6_overhead.Klt_futex in
  let local = run Fig6_overhead.Klt_futex_local in
  if Float.abs (sy -. timer_only) > 0.02 then
    Alcotest.failf "signal-yield (%g) should track timer-only (%g)" sy timer_only;
  (* The sigsuspend->futex step is a clear win; the worker-local pool is
     within noise of the global pool in our model (its real-world gain is
     mostly avoided affinity/cache syscalls priced near zero for cold
     pool KLTs) — assert it does not regress materially. *)
  if not (naive > futex) then
    Alcotest.failf "futex must beat sigsuspend: naive %g futex %g" naive futex;
  if local > futex *. 1.10 then
    Alcotest.failf "local pool regressed: futex %g local %g" futex local;
  if local < sy then Alcotest.failf "KLT-switching cheaper than signal-yield?";
  if naive > 0.5 then Alcotest.failf "naive KLT-switching imploded: %g" naive

(* [Exputil.par_map] is [List.map] spread over domains: same order,
   same bits, same exception. *)
let test_par_map_order () =
  let xs = List.init 200 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "list order" (List.map f xs) (Exputil.par_map f xs);
  Alcotest.(check (list int)) "empty" [] (Exputil.par_map f []);
  Alcotest.(check (list int)) "singleton" [ 5 ] (Exputil.par_map f [ 2 ])

let test_par_map_fig6_bits () =
  let points =
    List.concat_map
      (fun variant -> List.map (fun i -> (variant, i)) [ None; Some 3e-4; Some 1e-3 ])
      Fig6_overhead.[ Timer_only; Signal_yield_v; Klt_naive; Klt_futex_local ]
  in
  let run (variant, interval) =
    Fig6_overhead.run_once Oskern.Machine.skylake ~workers:8 ~threads_per_worker:4
      ~per_thread:5e-3 ~variant ~interval
  in
  let bits = List.map Int64.bits_of_float in
  Alcotest.(check (list int64)) "par_map = List.map, bit for bit"
    (bits (List.map run points))
    (bits (Exputil.par_map run points))

exception Job of int

(* Even jobs take a while; odd jobs raise.  Whatever domain each job
   lands on, the caller sees job 1's exception, and only after every
   slow job has finished: a helper that raised does not cut the sweep
   short, and the caller's own raise waits for the helpers. *)
let test_par_map_raise () =
  let finished = Atomic.make 0 in
  let job i =
    if i mod 2 = 1 then raise (Job i);
    Unix.sleepf 0.02;
    Atomic.incr finished;
    i
  in
  match Exputil.par_map job (List.init 8 Fun.id) with
  | _ -> Alcotest.fail "par_map returned past a raising job"
  | exception Job i ->
      Alcotest.(check int) "first raising job in list order" 1 i;
      Alcotest.(check int) "every slow job finished first" 4 (Atomic.get finished)

let suite =
  [
    Alcotest.test_case "fig4: contention shapes" `Slow test_fig4_shapes;
    Alcotest.test_case "table1: ordering + magnitude" `Slow test_table1_ordering;
    Alcotest.test_case "fig6: optimization ladder" `Slow test_fig6_ordering;
    Alcotest.test_case "par_map keeps list order" `Quick test_par_map_order;
    Alcotest.test_case "par_map fig6 sweep = List.map bits" `Quick test_par_map_fig6_bits;
    Alcotest.test_case "par_map re-raises after joining" `Quick test_par_map_raise;
  ]
