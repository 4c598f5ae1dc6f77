(* Remaining public-API surface: pretty-printers, guards, and small
   accessors not covered elsewhere. *)

open Desim
open Oskern
open Preempt_core

let fmt_to_string pp v = Format.asprintf "%a" pp v

let test_pp_machine_cpuset () =
  let s = fmt_to_string Machine.pp Machine.skylake in
  Alcotest.(check bool) "machine pp" true (Astring_contains.contains s "56 cores");
  let s = fmt_to_string Cpuset.pp (Cpuset.of_list 4 [ 0; 2 ]) in
  Alcotest.(check string) "cpuset pp" "{0,2}" s

let test_pp_stats () =
  let st = Stats.create () in
  Stats.add st 1.0;
  Stats.add st 3.0;
  let s = fmt_to_string Stats.pp_summary st in
  Alcotest.(check bool) "stats pp has n=2" true (Astring_contains.contains s "n=2")

let test_exputil_formats () =
  Alcotest.(check string) "us" "2.50 us" (Experiments.Exputil.us 2.5e-6);
  Alcotest.(check string) "pct" "12.34%" (Experiments.Exputil.pct 0.12341);
  Alcotest.(check string) "seconds" "1.500 s" (Experiments.Exputil.seconds 1.5)

let test_set_preemption_interval_guard () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 1) in
  let rt = Runtime.create kernel ~n_workers:1 in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Runtime.set_preemption_interval: interval <= 0") (fun () ->
      Runtime.set_preemption_interval rt 0.0)

let test_runtime_create_guards () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 2) in
  Alcotest.check_raises "zero workers" (Invalid_argument "Runtime.create: n_workers <= 0")
    (fun () -> ignore (Runtime.create kernel ~n_workers:0));
  Alcotest.check_raises "too many workers"
    (Invalid_argument "Runtime.create: more workers than cores") (fun () ->
      ignore (Runtime.create kernel ~n_workers:3))

let test_double_start_rejected () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 1) in
  let rt = Runtime.create kernel ~n_workers:1 in
  ignore (Runtime.spawn rt ~name:"x" (fun () -> ()));
  Runtime.start rt;
  Alcotest.check_raises "double start" (Invalid_argument "Runtime.start: already started")
    (fun () -> Runtime.start rt);
  Engine.run eng

let test_ult_accessors () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 1) in
  let rt = Runtime.create kernel ~n_workers:1 in
  let u = Runtime.spawn rt ~kind:Types.Signal_yield ~priority:2 ~name:"acc" (fun () -> ()) in
  Alcotest.(check string) "name" "acc" (Ult.name u);
  Alcotest.(check int) "priority" 2 (Ult.priority u);
  Ult.set_priority u 5;
  Alcotest.(check int) "set_priority" 5 (Ult.priority u);
  Alcotest.(check bool) "kind" true (Ult.kind u = Types.Signal_yield);
  Alcotest.(check bool) "not finished yet" false (Ult.finished u);
  Alcotest.(check (float 0.0)) "no cpu yet" 0.0 (Ult.cpu u);
  Runtime.start rt;
  Engine.run eng;
  Alcotest.(check bool) "finished" true (Ult.finished u)

let test_kernel_accessors () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 2) in
  Alcotest.(check int) "cores" 2 (Kernel.machine kernel).Machine.cores;
  Alcotest.(check bool) "engine identity" true (Kernel.engine kernel == eng);
  let klt = Kernel.spawn kernel ~nice:3 ~name:"n" (fun _ -> ()) in
  Alcotest.(check int) "nice" 3 (Kernel.nice klt);
  Alcotest.(check string) "name" "n" (Kernel.klt_name klt);
  Alcotest.(check string) "created state" "created" (Kernel.state_name klt);
  Engine.run eng;
  Alcotest.(check string) "zombie state" "zombie" (Kernel.state_name klt)

let test_machine_with_cores_preserves_costs () =
  let m = Machine.with_cores Machine.knl 8 in
  Alcotest.(check (float 0.0)) "costs preserved"
    Machine.knl.Machine.costs.Machine.signal_lock_hold
    m.Machine.costs.Machine.signal_lock_hold;
  Alcotest.(check int) "cores" 8 m.Machine.cores

(* --- Unified construction path: Config.make / validate ------------- *)

let test_config_make_validation () =
  (* Every rejection names the field, the offending value and the
     requirement, in one uniform shape. *)
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Config: interval = 0 (must be positive)") (fun () ->
      ignore (Config.make ~interval:0.0 ()));
  Alcotest.check_raises "negative interval"
    (Invalid_argument "Config: interval = -1 (must be positive)") (fun () ->
      ignore (Config.make ~interval:(-1.0) ()));
  Alcotest.check_raises "NaN interval"
    (Invalid_argument "Config: interval = nan (must be positive)") (fun () ->
      ignore (Config.make ~interval:Float.nan ()));
  Alcotest.check_raises "negative pool capacity"
    (Invalid_argument "Config: local_pool_capacity = -1 (must be non-negative)")
    (fun () -> ignore (Config.make ~local_pool_capacity:(-1) ()));
  Alcotest.check_raises "zero idle_poll"
    (Invalid_argument "Config: idle_poll = 0 (must be positive)") (fun () ->
      ignore (Config.make ~idle_poll:0.0 ()));
  Alcotest.check_raises "NaN idle_poll"
    (Invalid_argument "Config: idle_poll = nan (must be positive)") (fun () ->
      ignore (Config.make ~idle_poll:Float.nan ()))

let test_config_errors_uniform_shape () =
  (* The "Config: <field> = <value> (must be <requirement>)" shape is a
     stable contract: harness code greps the field name out of it. *)
  let message_of f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument m -> m
  in
  List.iter
    (fun (field, f) ->
      let m = message_of f in
      Alcotest.(check bool)
        (Printf.sprintf "%S names the field" m)
        true
        (Astring_contains.contains m ("Config: " ^ field ^ " = "));
      Alcotest.(check bool)
        (Printf.sprintf "%S states the requirement" m)
        true
        (Astring_contains.contains m "(must be "))
    [
      ("interval", fun () -> ignore (Config.make ~interval:(-2.5) ()));
      ( "local_pool_capacity",
        fun () -> ignore (Config.make ~local_pool_capacity:(-7) ()) );
      ("idle_poll", fun () -> ignore (Config.make ~idle_poll:(-1e-6) ()));
      ("recorder_capacity", fun () -> ignore (Config.make ~recorder_capacity:0 ()));
    ]

let test_config_make_defaults () =
  Alcotest.(check bool) "make () = default" true (Config.make () = Config.default);
  let c = Config.make ~interval:5e-4 ~suspend_mode:Config.Sigsuspend () in
  Alcotest.(check (float 0.0)) "interval set" 5e-4 c.Config.interval;
  Alcotest.(check bool) "suspend_mode set" true (c.Config.suspend_mode = Config.Sigsuspend)

let test_config_metrics_alias () =
  (* Canonical name; the deprecated [enable_metrics] alias is gone
     (docs/INTERNALS.md) — this pins the rename's end state. *)
  let c = Config.make ~metrics_enabled:true () in
  Alcotest.(check bool) "metrics_enabled" true c.Config.metrics_enabled;
  let c = Config.make () in
  Alcotest.(check bool) "off by default" false c.Config.metrics_enabled

(* Runtime.create routes any config — including hand-built records —
   through Config.validate. *)
let test_runtime_create_validates_config () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 1) in
  Alcotest.check_raises "bad config rejected"
    (Invalid_argument "Config: interval = nan (must be positive)") (fun () ->
      ignore
        (Runtime.create
           ~config:{ Config.default with Config.interval = Float.nan }
           kernel ~n_workers:1));
  (* Config.metrics_enabled is the one switch; Runtime reflects it. *)
  let rt =
    Runtime.create ~config:(Config.make ~metrics_enabled:true ()) kernel ~n_workers:1
  in
  Alcotest.(check bool) "metrics on via config" true (Runtime.metrics_enabled rt);
  Runtime.set_metrics_enabled rt false;
  Alcotest.(check bool) "runtime setter" false (Runtime.metrics_enabled rt)

(* --- Fiber pool construction: Fiber.Config.make / validate ---------- *)

(* The real fiber runtime's smart constructor speaks the same
   "Config: <field> = <value> (must be <requirement>)" contract as
   Core's Config (pinned above): every pool-shape rejection names the
   field, the offending value and the requirement. *)
let test_fiber_config_validation () =
  let sp = Fiber.Config.subpool in
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Config: domains = 0 (must be >= 1)") (fun () ->
      ignore (Fiber.Config.make ~domains:0 ()));
  Alcotest.check_raises "bad preempt_interval"
    (Invalid_argument "Config: preempt_interval = -0.001 (must be positive)")
    (fun () ->
      ignore (Fiber.Config.make ~domains:1 ~preempt_interval:(-0.001) ()));
  Alcotest.check_raises "zero recorder_capacity"
    (Invalid_argument "Config: recorder_capacity = 0 (must be positive)")
    (fun () -> ignore (Fiber.Config.make ~domains:1 ~recorder_capacity:0 ()));
  Alcotest.check_raises "empty subpools"
    (Invalid_argument "Config: subpools = [] (must be non-empty)") (fun () ->
      ignore (Fiber.Config.make ~domains:1 ~subpools:[] ()));
  Alcotest.check_raises "empty sub-pool name"
    (Invalid_argument "Config: subpool.name = \"\" (must be non-empty)")
    (fun () ->
      ignore
        (Fiber.Config.make ~domains:1
           ~subpools:[ sp ~name:"" ~workers:[ 0 ] () ]
           ()));
  Alcotest.check_raises "duplicate sub-pool name"
    (Invalid_argument "Config: subpool.name = \"a\" (must be unique)")
    (fun () ->
      ignore
        (Fiber.Config.make ~domains:2
           ~subpools:[ sp ~name:"a" ~workers:[ 0 ] (); sp ~name:"a" ~workers:[ 1 ] () ]
           ()));
  Alcotest.check_raises "empty worker list"
    (Invalid_argument "Config: subpools[a].workers = [] (must be non-empty)")
    (fun () ->
      ignore
        (Fiber.Config.make ~domains:1 ~subpools:[ sp ~name:"a" ~workers:[] () ] ()));
  Alcotest.check_raises "worker out of range"
    (Invalid_argument
       "Config: subpools[a].workers = 2 (must be within 0..1 (domains = 2))")
    (fun () ->
      ignore
        (Fiber.Config.make ~domains:2
           ~subpools:[ sp ~name:"a" ~workers:[ 0; 1; 2 ] () ]
           ()));
  Alcotest.check_raises "overlapping sub-pools"
    (Invalid_argument
       "Config: subpools[b].workers = 0 (must be pinned to exactly one \
        sub-pool)") (fun () ->
      ignore
        (Fiber.Config.make ~domains:2
           ~subpools:
             [ sp ~name:"a" ~workers:[ 0; 1 ] (); sp ~name:"b" ~workers:[ 0 ] () ]
           ()));
  Alcotest.check_raises "unpinned worker"
    (Invalid_argument
       "Config: subpools = {a} (must be a partition of workers 0..1: worker 1 \
        is unpinned)") (fun () ->
      ignore
        (Fiber.Config.make ~domains:2 ~subpools:[ sp ~name:"a" ~workers:[ 0 ] () ] ()))

(* The adaptive-quantum knobs speak the same contract: bounds must be
   sane even when merely latent on a non-adaptive pool, and [adaptive]
   is meaningless without a base [preempt_interval] to adapt. *)
let test_fiber_quantum_config_validation () =
  Alcotest.check_raises "zero quantum_min"
    (Invalid_argument "Config: quantum_min = 0 (must be positive)") (fun () ->
      ignore
        (Fiber.Config.make ~domains:1 ~preempt_interval:1e-3 ~quantum_min:0.0 ()));
  Alcotest.check_raises "negative quantum_max"
    (Invalid_argument "Config: quantum_max = -0.002 (must be positive)")
    (fun () ->
      ignore
        (Fiber.Config.make ~domains:1 ~preempt_interval:1e-3
           ~quantum_max:(-0.002) ()));
  Alcotest.check_raises "inverted quantum bounds"
    (Invalid_argument
       "Config: quantum_min = 0.003 (must be <= quantum_max (0.002))")
    (fun () ->
      ignore
        (Fiber.Config.make ~domains:1 ~preempt_interval:1e-3 ~quantum_min:0.003
           ~quantum_max:0.002 ()));
  Alcotest.check_raises "adaptive without a base interval"
    (Invalid_argument
       "Config: adaptive = true (must be combined with preempt_interval)")
    (fun () -> ignore (Fiber.Config.make ~domains:1 ~adaptive:true ()))

(* [Fiber.Config.make]'s defaults build a flat pool: one "default"
   sub-pool spanning every worker under the work-stealing scheduler,
   never adaptive, and with [~preempt_interval] every worker's quantum
   pinned at the interval. *)
let test_fiber_config_defaults () =
  let pool = Fiber.make (Fiber.Config.make ~domains:2 ()) in
  Alcotest.(check (list string)) "one default sub-pool" [ "default" ]
    (Fiber.subpools pool);
  Alcotest.(check bool) "default pools are never adaptive" false
    (Fiber.adaptive pool);
  Alcotest.(check int) "domains" 2 (Fiber.domains pool);
  let v = Fiber.run pool (fun () -> Fiber.await (Fiber.spawn (fun () -> 41 + 1))) in
  Alcotest.(check int) "default pool runs" 42 v;
  (match Fiber.stats pool with
  | [ st ] ->
      Alcotest.(check string) "ws scheduler" "ws" st.Fiber.st_sched;
      Alcotest.(check int) "both workers" 2 st.Fiber.st_workers
  | sts -> Alcotest.fail (Printf.sprintf "%d stats rows, expected 1" (List.length sts)));
  Fiber.shutdown pool;
  let pool = Fiber.make (Fiber.Config.make ~domains:2 ~preempt_interval:1e-3 ()) in
  Alcotest.(check bool) "preempting default pool stays non-adaptive" false
    (Fiber.adaptive pool);
  (match Fiber.stats pool with
  | [ st ] ->
      Alcotest.(check int) "quantum per member" 2
        (List.length st.Fiber.st_quanta);
      List.iter
        (fun (_, q) ->
          Alcotest.(check (float 0.0)) "quantum pinned at the interval" 1e-3 q)
        st.Fiber.st_quanta
  | sts -> Alcotest.fail (Printf.sprintf "%d stats rows, expected 1" (List.length sts)));
  Fiber.shutdown pool

(* Abt.init no longer hard-codes per-worker-aligned timers. *)
let test_abt_init_strategies () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 2) in
  let rt =
    Abt.init ~preemption:1e-3 ~timer_strategy:Config.Per_process_chain
      ~suspend_mode:Config.Sigsuspend kernel ~num_xstreams:2 ()
  in
  Alcotest.(check (float 0.0)) "interval" 1e-3 (Runtime.preemption_interval rt);
  let t = Abt.thread_create rt ~kind:Abt.Preemptive_signal_yield (fun () -> Abt.work 3e-3) in
  ignore t;
  Engine.run eng;
  Alcotest.(check bool) "chain strategy preempts" true (Runtime.preempt_signals rt > 0);
  Alcotest.check_raises "invalid via Config.make"
    (Invalid_argument "Config: interval = nan (must be positive)") (fun () ->
      ignore (Abt.init ~preemption:Float.nan kernel ~num_xstreams:1 ()))

let suite =
  [
    Alcotest.test_case "pp machine/cpuset" `Quick test_pp_machine_cpuset;
    Alcotest.test_case "pp stats" `Quick test_pp_stats;
    Alcotest.test_case "exputil formats" `Quick test_exputil_formats;
    Alcotest.test_case "set_preemption_interval guard" `Quick test_set_preemption_interval_guard;
    Alcotest.test_case "runtime create guards" `Quick test_runtime_create_guards;
    Alcotest.test_case "double start rejected" `Quick test_double_start_rejected;
    Alcotest.test_case "ult accessors" `Quick test_ult_accessors;
    Alcotest.test_case "kernel accessors" `Quick test_kernel_accessors;
    Alcotest.test_case "with_cores preserves costs" `Quick test_machine_with_cores_preserves_costs;
    Alcotest.test_case "Config.make validation" `Quick test_config_make_validation;
    Alcotest.test_case "Config errors name field and value" `Quick
      test_config_errors_uniform_shape;
    Alcotest.test_case "Config.make defaults" `Quick test_config_make_defaults;
    Alcotest.test_case "metrics naming unified" `Quick test_config_metrics_alias;
    Alcotest.test_case "Runtime.create validates config" `Quick test_runtime_create_validates_config;
    Alcotest.test_case "Abt.init strategy/suspend knobs" `Quick test_abt_init_strategies;
    Alcotest.test_case "Fiber.Config validation shape" `Quick
      test_fiber_config_validation;
    Alcotest.test_case "Fiber.Config quantum knobs" `Quick
      test_fiber_quantum_config_validation;
    Alcotest.test_case "Fiber.Config.make defaults" `Quick
      test_fiber_config_defaults;
  ]
