(* End-to-end sanity of the three simulated workload drivers at small
   scale.  The full paper-scale sweeps live in the bench harness. *)

open Oskern

let small = Machine.with_cores Machine.skylake 8

let bolt kind mkl timer interval =
  Linalg.Cholesky_run.Bolt { kind; mkl; timer; interval }

let npre = Preempt_core.Types.Nonpreemptive

let ksw = Preempt_core.Types.Klt_switching

let aligned = Preempt_core.Config.Per_worker_aligned

let no_timer = Preempt_core.Config.No_timer

let run_chol cfg =
  Linalg.Cholesky_run.run ~machine:small ~outer:3 ~inner:3 ~tiles:5 ~tile_dim:400 cfg

let test_chol_bolt_completes () =
  let r = run_chol (bolt npre Linalg.Blas_model.Yield_wait no_timer 1e-3) in
  Alcotest.(check bool) "no deadlock" false r.Linalg.Cholesky_run.deadlocked;
  Alcotest.(check int) "task count" 35 r.tasks;
  Alcotest.(check bool) "gflops positive" true (r.gflops > 0.0)

let test_chol_preemptive_with_stock_mkl () =
  let r = run_chol (bolt ksw Linalg.Blas_model.Busy_wait aligned 1e-3) in
  Alcotest.(check bool) "no deadlock" false r.Linalg.Cholesky_run.deadlocked;
  Alcotest.(check bool) "preemptions happened" true (r.preemptions > 0)

let test_chol_iomp_completes () =
  let r = run_chol (Linalg.Cholesky_run.Iomp { flat = false }) in
  Alcotest.(check bool) "no deadlock" false r.Linalg.Cholesky_run.deadlocked;
  let rf = run_chol (Linalg.Cholesky_run.Iomp { flat = true }) in
  Alcotest.(check bool) "flat no deadlock" false rf.Linalg.Cholesky_run.deadlocked

let test_chol_nonpreemptive_busywait_deadlocks () =
  (* Heavy oversubscription (4x4 executors+teams on 4 cores) with stock
     busy-wait MKL on nonpreemptive threads: the paper's §4.1 failure. *)
  let machine = Machine.with_cores Machine.skylake 4 in
  let r =
    Linalg.Cholesky_run.run ~machine ~outer:4 ~inner:4 ~tiles:6 ~tile_dim:300
      (bolt npre Linalg.Blas_model.Busy_wait no_timer 1e-3)
  in
  Alcotest.(check bool) "deadlocked" true r.Linalg.Cholesky_run.deadlocked;
  (* And the same setup with preemption survives. *)
  let r2 =
    Linalg.Cholesky_run.run ~machine ~outer:4 ~inner:4 ~tiles:6 ~tile_dim:300
      (bolt ksw Linalg.Blas_model.Busy_wait aligned 1e-3)
  in
  Alcotest.(check bool) "preemption rescues" false r2.Linalg.Cholesky_run.deadlocked

let phases = Multigrid.Fmg_profile.phases ~levels:5 ~total_core_seconds:0.8

let test_packing_baseline_scales () =
  let t8 = Multigrid.Packing_run.baseline ~machine:small ~n:8 ~phases () in
  let t4 = Multigrid.Packing_run.baseline ~machine:small ~n:4 ~phases () in
  (* Half the cores: about twice the time. *)
  let ratio = t4 /. t8 in
  if ratio < 1.6 || ratio > 2.4 then Alcotest.failf "scaling ratio %f" ratio

let test_packing_preemptive_near_ideal () =
  let n_active = 5 in
  let r =
    Multigrid.Packing_run.run ~machine:small ~n_threads:8 ~n_active ~phases
      (Multigrid.Packing_run.Bolt_packing
         { kind = ksw; timer = aligned; interval = 1e-3 })
  in
  let base = Multigrid.Packing_run.baseline ~machine:small ~n:n_active ~phases () in
  let overhead = (r.Multigrid.Packing_run.time /. base) -. 1.0 in
  if overhead > 0.25 then Alcotest.failf "preemptive packing overhead %.1f%%" (overhead *. 100.0);
  Alcotest.(check bool) "preempted" true (r.preemptions > 0)

let test_packing_nonpreemptive_divisor_effect () =
  (* 8 threads: nonpreemptive packing is fine at n=4 (divisor) but pays
     ~ceil(8/5)*5/8 - 1 = 25% at n=5. *)
  let run n =
    let r =
      Multigrid.Packing_run.run ~machine:small ~n_threads:8 ~n_active:n ~phases
        (Multigrid.Packing_run.Bolt_packing
           { kind = npre; timer = no_timer; interval = 1e-3 })
    in
    let base = Multigrid.Packing_run.baseline ~machine:small ~n ~phases () in
    (r.Multigrid.Packing_run.time /. base) -. 1.0
  in
  let at4 = run 4 and at5 = run 5 in
  if at4 > 0.10 then Alcotest.failf "divisor case overhead %.1f%%" (at4 *. 100.0);
  if at5 < 0.10 then Alcotest.failf "non-divisor case too good: %.1f%%" (at5 *. 100.0)

let test_packing_iomp_runs () =
  let r =
    Multigrid.Packing_run.run ~machine:small ~n_threads:8 ~n_active:5 ~phases
      Multigrid.Packing_run.Iomp_taskset
  in
  Alcotest.(check bool) "finished" true (r.Multigrid.Packing_run.time > 0.0)

(* Paper-scale geometry (56 workers) at a size where analysis fits the
   gap+straggler capacity at interval 2 — the regime Fig. 9b describes. *)
let insitu cfg interval =
  Moldyn.Insitu_run.run ~machine:Machine.skylake ~atoms:7e6 ~steps:6
    ~analysis_interval:interval cfg

let test_insitu_baseline_and_overhead () =
  let base = insitu { Moldyn.Insitu_run.rk = Argobots; priority = true } None in
  let with_analysis = insitu { Moldyn.Insitu_run.rk = Argobots; priority = true } (Some 2) in
  Alcotest.(check bool) "baseline positive" true (base.Moldyn.Insitu_run.time > 0.0);
  Alcotest.(check bool) "analysis costs something" true
    (with_analysis.Moldyn.Insitu_run.time >= base.Moldyn.Insitu_run.time)

let test_insitu_priority_helps () =
  (* Fig. 9b regime: prioritization clearly helps Pthreads (CFS slices
     analysis against the simulation otherwise); Argobots w/ priority
     beats both Pthreads configs and stays within noise of Argobots
     w/o (whose FIFO pools already approximate priority when the
     analysis fits the gaps). *)
  let g rk priority = insitu { Moldyn.Insitu_run.rk; priority } (Some 2) in
  let anp = g Moldyn.Insitu_run.Argobots false in
  let ap = g Moldyn.Insitu_run.Argobots true in
  let pnp = g Moldyn.Insitu_run.Pthreads false in
  let pp = g Moldyn.Insitu_run.Pthreads true in
  if pp.Moldyn.Insitu_run.time > pnp.Moldyn.Insitu_run.time *. 1.005 then
    Alcotest.failf "pthreads priority hurt: %f vs %f" pp.time pnp.time;
  if ap.Moldyn.Insitu_run.time > anp.Moldyn.Insitu_run.time *. 1.03 then
    Alcotest.failf "argobots priority cost too high: %f vs %f" ap.time anp.time;
  if ap.time > pnp.time then
    Alcotest.failf "argobots w/ priority not better than pthreads w/o: %f vs %f" ap.time
      pnp.time

let test_insitu_pthreads_runs () =
  let r = insitu { Moldyn.Insitu_run.rk = Pthreads; priority = true } (Some 2) in
  Alcotest.(check bool) "finished" true (r.Moldyn.Insitu_run.time > 0.0);
  Alcotest.(check bool) "idle fraction sane" true
    (r.idle_frac >= 0.0 && r.idle_frac <= 1.0)

let suite =
  [
    Alcotest.test_case "cholesky: BOLT completes" `Quick test_chol_bolt_completes;
    Alcotest.test_case "cholesky: preemptive + stock MKL" `Quick test_chol_preemptive_with_stock_mkl;
    Alcotest.test_case "cholesky: IOMP completes" `Quick test_chol_iomp_completes;
    Alcotest.test_case "cholesky: nonpreemptive busy-wait deadlocks" `Slow
      test_chol_nonpreemptive_busywait_deadlocks;
    Alcotest.test_case "packing: baseline scales" `Quick test_packing_baseline_scales;
    Alcotest.test_case "packing: preemptive near ideal" `Quick test_packing_preemptive_near_ideal;
    Alcotest.test_case "packing: nonpreemptive divisor effect" `Quick
      test_packing_nonpreemptive_divisor_effect;
    Alcotest.test_case "packing: IOMP runs" `Quick test_packing_iomp_runs;
    Alcotest.test_case "insitu: baseline and overhead" `Quick test_insitu_baseline_and_overhead;
    Alcotest.test_case "insitu: priority helps at interval 2" `Slow test_insitu_priority_helps;
    Alcotest.test_case "insitu: pthreads runs" `Quick test_insitu_pthreads_runs;
  ]

(* Fig. 8's FMG phase profile.  Kept under the "multigrid" group its
   cases have always been reported in. *)
let test_profile_total_and_structure () =
  let ps = Multigrid.Fmg_profile.phases ~levels:7 ~total_core_seconds:25.0 in
  Alcotest.(check (float 1e-6)) "total scaled" 25.0 (Multigrid.Fmg_profile.total_work ps);
  Alcotest.(check bool) "many phases" true (Multigrid.Fmg_profile.count ps > 50);
  (* Finest-level phases dominate the work. *)
  let finest_work =
    List.fold_left
      (fun acc (p : Multigrid.Fmg_profile.phase) -> if p.level = 0 then acc +. p.work else acc)
      0.0 ps
  in
  if finest_work < 0.7 *. 25.0 then Alcotest.failf "finest work only %g" finest_work;
  List.iter
    (fun (p : Multigrid.Fmg_profile.phase) ->
      if p.work <= 0.0 then Alcotest.fail "non-positive phase work")
    ps

let test_profile_levels_span_orders () =
  let ps = Multigrid.Fmg_profile.phases ~levels:7 ~total_core_seconds:25.0 in
  let works = List.map (fun (p : Multigrid.Fmg_profile.phase) -> p.work) ps in
  let lo = List.fold_left Float.min infinity works in
  let hi = List.fold_left Float.max 0.0 works in
  if hi /. lo < 1000.0 then Alcotest.failf "phase sizes too uniform: %g..%g" lo hi

let fmg_profile_suite =
  [
    Alcotest.test_case "phase profile total/structure" `Quick test_profile_total_and_structure;
    Alcotest.test_case "phase sizes span orders" `Quick test_profile_levels_span_orders;
  ]
