(* Cross-cutting smaller behaviours: the MKL team model, config naming,
   cost-model invariants, and the SCHED_FIFO in-situ ablation. *)

open Desim
open Oskern
open Preempt_core

let small = Machine.with_cores Machine.skylake 4

(* ---------------- Blas_model ---------------- *)

let run_ult_team ~kind ~style ~inner =
  let eng = Engine.create () in
  let kernel = Kernel.create eng small in
  let rt = Runtime.create kernel ~n_workers:4 in
  let finish = ref 0.0 in
  ignore
    (Runtime.spawn rt ~kind ~name:"task" (fun () ->
         Linalg.Blas_model.ult_team_compute rt ~kind ~style ~seconds:0.02 ~inner;
         finish := Ult.now ()));
  Runtime.start rt;
  Engine.run ~until:2.0 eng;
  (!finish, Runtime.unfinished rt)

let test_team_parallelizes () =
  let t1, left1 = run_ult_team ~kind:Types.Nonpreemptive ~style:Linalg.Blas_model.Yield_wait ~inner:1 in
  let t4, left4 = run_ult_team ~kind:Types.Nonpreemptive ~style:Linalg.Blas_model.Yield_wait ~inner:4 in
  Alcotest.(check int) "all done (1)" 0 left1;
  Alcotest.(check int) "all done (4)" 0 left4;
  (* 20 ms of team work over 4 workers: ~5 ms. *)
  if t4 > t1 /. 2.5 then Alcotest.failf "no speedup: %f vs %f" t4 t1

let test_busywait_team_on_free_cores_completes () =
  let t, left = run_ult_team ~kind:Types.Nonpreemptive ~style:Linalg.Blas_model.Busy_wait ~inner:4 in
  Alcotest.(check int) "completes when cores free" 0 left;
  Alcotest.(check bool) "took some time" true (t > 0.0)

let test_omp_team_compute () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng small in
  let omp = Ompmodel.Omp.create kernel ~blocktime:0.0 () in
  let finish = ref 0.0 in
  ignore
    (Kernel.spawn kernel ~name:"main" (fun master ->
         Linalg.Blas_model.omp_team_compute omp ~master ~seconds:0.02 ~inner:4;
         finish := Kernel.now kernel;
         Ompmodel.Omp.shutdown omp));
  Engine.run eng;
  if !finish > 0.012 || !finish < 0.005 then Alcotest.failf "omp team time %f" !finish

(* ---------------- names and configs ---------------- *)

let test_config_names () =
  Alcotest.(check string) "none" "none" (Config.timer_strategy_name Config.No_timer);
  Alcotest.(check string) "aligned" "per-worker (aligned)"
    (Config.timer_strategy_name Config.Per_worker_aligned);
  let n =
    Linalg.Cholesky_run.config_name
      (Linalg.Cholesky_run.Bolt
         {
           kind = Types.Klt_switching;
           mkl = Linalg.Blas_model.Busy_wait;
           timer = Config.Per_worker_aligned;
           interval = 1e-3;
         })
  in
  Alcotest.(check bool) "mentions interval" true (Astring_contains.contains n "1ms");
  Alcotest.(check string) "iomp flat" "IOMP (flat)"
    (Linalg.Cholesky_run.config_name (Linalg.Cholesky_run.Iomp { flat = true }));
  Alcotest.(check string) "insitu name" "Argobots (w/ priority)"
    (Moldyn.Insitu_run.config_name { Moldyn.Insitu_run.rk = Argobots; priority = true });
  Alcotest.(check string) "packing name" "BOLT (nonpreemptive)"
    (Multigrid.Packing_run.config_name
       (Multigrid.Packing_run.Bolt_packing
          { kind = Types.Nonpreemptive; timer = Config.No_timer; interval = 1e-3 }))

(* ---------------- cost model invariants ---------------- *)

let test_cost_model_invariants () =
  List.iter
    (fun (m : Machine.t) ->
      let c = m.Machine.costs in
      Alcotest.(check bool) "ult switch < klt switch" true
        (c.Machine.ult_ctx_switch < c.Machine.klt_ctx_switch);
      Alcotest.(check bool) "signal costs positive" true
        (c.Machine.signal_lock_hold > 0.0 && c.Machine.signal_handler_entry > 0.0);
      Alcotest.(check bool) "slices sane" true
        (c.Machine.min_granularity <= c.Machine.sched_latency))
    [ Machine.skylake; Machine.knl ];
  (* KNL syscall-ish costs scale up vs Skylake. *)
  Alcotest.(check bool) "knl pricier" true
    (Machine.knl.Machine.costs.Machine.klt_ctx_switch
    > Machine.skylake.Machine.costs.Machine.klt_ctx_switch)

(* ---------------- SCHED_FIFO in-situ ablation ---------------- *)

let test_fifo_ablation_runs_and_prioritizes () =
  let machine = Machine.with_cores Machine.skylake 8 in
  let atoms = 7e5 and steps = 4 in
  let base =
    Moldyn.Insitu_run.run ~machine ~workers:8 ~atoms ~steps ~analysis_interval:None
      { Moldyn.Insitu_run.rk = Argobots; priority = true }
  in
  let fifo =
    Moldyn.Insitu_run.run_pthreads_fifo ~machine ~workers:8 ~atoms ~steps
      ~analysis_interval:(Some 2) ()
  in
  Alcotest.(check bool) "completes" true (fifo.Moldyn.Insitu_run.time > 0.0);
  (* Strict RT priority: simulation is never delayed; total time is the
     baseline plus at most a trailing analysis tail. *)
  Alcotest.(check bool) "no pathological overhead" true
    (fifo.time < base.Moldyn.Insitu_run.time *. 1.6)

(* ---------------- fmg profile edges ---------------- *)

let test_profile_invalid () =
  Alcotest.check_raises "levels < 2" (Invalid_argument "Fmg_profile.phases: levels < 2")
    (fun () -> ignore (Multigrid.Fmg_profile.phases ~levels:1 ~total_core_seconds:1.0))

let test_profile_scaling_linear () =
  let p1 = Multigrid.Fmg_profile.phases ~levels:5 ~total_core_seconds:1.0 in
  let p2 = Multigrid.Fmg_profile.phases ~levels:5 ~total_core_seconds:2.0 in
  Alcotest.(check int) "same structure" (List.length p1) (List.length p2);
  List.iter2
    (fun (a : Multigrid.Fmg_profile.phase) (b : Multigrid.Fmg_profile.phase) ->
      Alcotest.(check (float 1e-9)) "double" (a.work *. 2.0) b.work)
    p1 p2

let test_recommend_kind () =
  (* Paper 3.4 verbatim. *)
  Alcotest.(check bool) "no preemption -> nonpreemptive" true
    (Config.recommend_kind ~needs_preemption:false ~klt_dependent:None = `Nonpreemptive);
  Alcotest.(check bool) "KLT-independent -> signal-yield" true
    (Config.recommend_kind ~needs_preemption:true ~klt_dependent:(Some false)
    = `Signal_yield);
  Alcotest.(check bool) "KLT-dependent -> KLT-switching" true
    (Config.recommend_kind ~needs_preemption:true ~klt_dependent:(Some true)
    = `Klt_switching);
  Alcotest.(check bool) "unknown (third-party) -> KLT-switching" true
    (Config.recommend_kind ~needs_preemption:true ~klt_dependent:None = `Klt_switching)

let suite =
  [
    Alcotest.test_case "ULT team parallelizes" `Quick test_team_parallelizes;
    Alcotest.test_case "busy-wait team completes when free" `Quick
      test_busywait_team_on_free_cores_completes;
    Alcotest.test_case "omp team compute" `Quick test_omp_team_compute;
    Alcotest.test_case "config names" `Quick test_config_names;
    Alcotest.test_case "cost model invariants" `Quick test_cost_model_invariants;
    Alcotest.test_case "SCHED_FIFO ablation" `Quick test_fifo_ablation_runs_and_prioritizes;
    Alcotest.test_case "fmg profile invalid" `Quick test_profile_invalid;
    Alcotest.test_case "fmg profile scales linearly" `Quick test_profile_scaling_linear;
    Alcotest.test_case "3.4 thread-type guidance" `Quick test_recommend_kind;
  ]
