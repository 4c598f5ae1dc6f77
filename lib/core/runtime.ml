open Desim
open Types
open Oskern

type t = rt

let n_active rt = rt.n_active

let unfinished rt = rt.unfinished

let is_stopping rt = rt.stopping

let interrupt_stats rt = rt.interrupt_stats

let preempt_latency_stats rt = rt.preempt_latency_stats

let metrics rt = Metrics.snapshot rt.metrics

let metrics_enabled rt = Metrics.enabled rt.metrics

(* The guard of every instrumented site: the recorder or metrics is on. *)
let refresh_observed rt =
  rt.observed <- Recorder.enabled rt.recorder || Metrics.enabled rt.metrics

let set_metrics_enabled rt b =
  Metrics.set_enabled rt.metrics b;
  refresh_observed rt

let preempt_signals rt = rt.preempt_signals

let klt_switches rt = rt.klt_switches

let klts_created rt = rt.klts_created

let worker_idle_time rt r = rt.idle_time.(r)

let now rt = Kernel.now rt.kernel

let costs rt = Kernel.costs rt.kernel

(* Kernel events arrive through the engine observer (installed only
   while the recorder is enabled, so a disabled recorder costs the
   kernel one option check per site) and land in the global ring.  The
   kernel's codes are the recorder's, so they are stored as given. *)
let kernel_observer rt ts code a b =
  Recorder.emit rt.recorder (Recorder.global_ring rt.recorder) ts code a b

let recorder rt = rt.recorder

let recorder_enabled rt = Recorder.enabled rt.recorder

let set_recorder_enabled rt b =
  Recorder.set_enabled rt.recorder b;
  Engine.set_observer (Kernel.engine rt.kernel)
    (if b then Some (kernel_observer rt) else None);
  refresh_observed rt

let flight_events rt = Recorder.events rt.recorder

let flight_dump rt = Recorder.encode rt.recorder

let save_flight rt ~path = Recorder.save rt.recorder ~path

let worker_of rt klt = Itab.find rt.worker_of_klt (Kernel.klt_id klt)

(* Re-pinning a pooled KLT to a new worker's core costs
   [affinity_reset] — the overhead that worker-local KLT pools avoid
   (paper §3.3.2). *)
let klt_pin rt klt rank =
  let prev =
    match Itab.find rt.klt_pinned (Kernel.klt_id klt) with Some r -> r | None -> -1
  in
  if prev <> rank then begin
    let ncores = (Kernel.machine rt.kernel).Machine.cores in
    Kernel.set_affinity rt.kernel klt (Cpuset.of_list ncores [ rank mod ncores ]);
    Itab.set rt.klt_pinned (Kernel.klt_id klt) rank;
    if prev >= 0 then Kernel.add_overhead rt.kernel klt (costs rt).Machine.affinity_reset
  end

let attach_klt rt (w : worker) klt =
  w.wklt <- Some klt;
  Itab.set rt.worker_of_klt (Kernel.klt_id klt) w;
  klt_pin rt klt w.rank

let detach_klt rt klt = Itab.remove rt.worker_of_klt (Kernel.klt_id klt)

let parking_of rt klt = Itab.get rt.parked (Kernel.klt_id klt)

let send_parked rt ?waker klt msg =
  let p = parking_of rt klt in
  p.pmsg <- Some msg;
  Kernel.Futex.set p.pfut 1;
  ignore (Kernel.Futex.wake rt.kernel ?waker p.pfut 1)

let pool_push rt (w : worker) klt =
  Metrics.incr_pool_puts rt.metrics w.rank;
  if rt.cfg.Config.use_local_klt_pool
     && Queue.length w.local_klts < rt.cfg.Config.local_pool_capacity
  then Queue.push klt w.local_klts
  else Queue.push klt rt.global_klts

(* Acquire a replacement KLT at preemption: worker-local pool first
   (already pinned here), then the global pool.  Must stay
   "async-signal-safe": pure queue pops, no blocking.  A schedule
   controller can override the pool pick (local vs global when both
   have stock) or inject pool exhaustion — the paper's "no spare KLT"
   slow path — to drive the creator-request machinery. *)
let acquire_klt rt (w : worker) =
  let got =
    match Engine.controller (Kernel.engine rt.kernel) with
    | Some c when Choice.fault c ~tag:"klt.exhausted" -> None
    | (Some _ as ctrl) when rt.cfg.Config.use_local_klt_pool
                            && (not (Queue.is_empty w.local_klts))
                            && not (Queue.is_empty rt.global_klts) ->
        let c = Option.get ctrl in
        if Choice.pick c ~n:2 ~tag:"klt.pool" = 0 then Some (Queue.pop w.local_klts)
        else Queue.take_opt rt.global_klts
    | Some _ | None ->
        if rt.cfg.Config.use_local_klt_pool && not (Queue.is_empty w.local_klts) then
          Some (Queue.pop w.local_klts)
        else Queue.take_opt rt.global_klts
  in
  (match got with Some _ -> Metrics.incr_pool_gets rt.metrics w.rank | None -> ());
  got

(* One request per failed preemption attempt (the paper's "issue another
   request and go through the same cycle again"); the creator's
   low-water check keeps the total bounded near actual demand. *)
let request_klt_creation rt (_w : worker) ~waker =
  rt.creator_requests <- rt.creator_requests + 1;
  match rt.creator_fut with
  | Some fut ->
      Kernel.Futex.set fut 1;
      ignore (Kernel.Futex.wake rt.kernel ~waker fut 1)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* ULT lifecycle. *)

let ready rt (u : ult) =
  match u.ustate with
  | U_blocked ->
      u.ustate <- U_ready;
      if rt.observed then emit rt (global_ring rt) Recorder.ev_ready u.uid 0;
      rt.sched.on_ready rt u
  | U_ready | U_running | U_bound | U_finished ->
      invalid_arg (Printf.sprintf "Runtime.ready: %s is not blocked" u.uname)

let on_finish rt (u : ult) =
  u.ustate <- U_finished;
  u.work <- None;
  u.cur_worker <- None;
  if rt.observed then emit rt (global_ring rt) Recorder.ev_finish u.uid 0;
  rt.unfinished <- rt.unfinished - 1;
  let waiters = u.join_waiters in
  u.join_waiters <- [];
  List.iter (fun f -> f ()) waiters

(* Signal-yield preemption (paper §3.1.1): the "handler" performs a
   user-level context switch back to the scheduler; the thread (with the
   handler frame on its stack, modeled by the continuation) goes back to
   the ready pool. *)
let signal_yield_preempt rt (w : worker) (u : ult) cont =
  (match w.wklt with
  | Some klt ->
      (* Switching out of the handler saves both the handler's and the
         thread's contexts (paper §3.1.1). *)
      Kernel.consume rt.kernel klt
        ((costs rt).Machine.ult_ctx_switch +. (costs rt).Machine.handler_ctx_switch)
  | None -> ());
  if rt.observed then emit rt w.rank Recorder.ev_preempt u.uid 0;
  u.work <- Some cont;
  u.ustate <- U_ready;
  u.cur_worker <- None;
  w.current <- None;
  rt.sched.on_preempted rt w u

(* KLT-switching suspend path (paper Fig. 2). *)
let klt_switch_preempt rt (w : worker) (u : ult) klt cont_left =
  rt.klt_switches <- rt.klt_switches + 1;
  if rt.observed then emit rt w.rank Recorder.ev_preempt u.uid 1;
  Kernel.consume rt.kernel klt (costs rt).Machine.handler_ctx_switch;
  u.ustate <- U_bound;
  u.bound_klt <- Some klt;
  u.resume_worker <- None;
  let fut = Kernel.Futex.create rt.kernel 0 in
  (u.bound_wake <-
     Some
       (fun waker_klt w2 ->
         u.resume_worker <- Some w2;
         (* The portable sigsuspend/pthread_kill resume costs the waker a
            pthread_kill syscall on top of the wakeup (paper §3.3.1). *)
         (match rt.cfg.Config.suspend_mode with
         | Config.Sigsuspend ->
             Kernel.consume rt.kernel waker_klt (costs rt).Machine.pthread_kill
         | Config.Futex_suspend -> ());
         Kernel.Futex.set fut 1;
         ignore (Kernel.Futex.wake rt.kernel ~waker:waker_klt fut 1)));
  rt.sched.on_preempted rt w u;
  (* Remap the worker to a fresh KLT (the acquirer already holds it). *)
  w.current <- None;
  (* Sleep until a scheduler pops us (paper Fig. 3a–b). *)
  while u.resume_worker = None do
    ignore (Kernel.Futex.wait rt.kernel klt fut ~expected:0)
  done;
  (* A sigsuspend-based suspend resolves an extra signal round-trip on
     the woken KLT before control returns (paper §3.3.1). *)
  (match rt.cfg.Config.suspend_mode with
  | Config.Sigsuspend -> Kernel.consume rt.kernel klt (costs rt).Machine.sigsuspend_extra
  | Config.Futex_suspend -> ());
  (* Fig. 3c: resume the thread on the popping worker. *)
  let w2 = Option.get u.resume_worker in
  u.resume_worker <- None;
  u.bound_klt <- None;
  u.bound_wake <- None;
  u.ustate <- U_running;
  u.cur_worker <- Some w2;
  w2.current <- Some u;
  if rt.observed then emit rt w2.rank Recorder.ev_resume u.uid 0;
  (* The thread moves *together with* its bound KLT: the kernel's
     migration penalty on that KLT's dispatch already prices the cache
     refill — charging the ULT-level penalty too would double-count. *)
  if u.last_worker <> w2.rank then u.ult_cpu_since_move <- 0.0;
  u.last_worker <- w2.rank;
  cont_left ()

(* ------------------------------------------------------------------ *)
(* The ULT effect handler. *)

let rec do_compute rt (u : ult) k d =
  let rec go remaining =
    let w = Option.get u.cur_worker in
    match w.wklt with
    | None -> assert false
    | Some klt ->
        let left =
          Kernel.compute_stoppable rt.kernel klt remaining ~should_stop:(fun () ->
              w.preempt_request)
        in
        let progressed = Float.max 0.0 (remaining -. left) in
        u.ult_cpu_since_move <- u.ult_cpu_since_move +. progressed;
        if left <= 0.0 then Effect.Deep.continue k ()
        else begin
          w.preempt_request <- false;
          u.preemptions <- u.preemptions + 1;
          w.preempts_taken <- w.preempts_taken + 1;
          match u.kind with
          | Nonpreemptive ->
              (* Defensive: nonpreemptive threads are never flagged. *)
              go left
          | Signal_yield -> signal_yield_preempt rt w u (fun () -> go left)
          | Klt_switching -> (
              match acquire_klt rt w with
              | None ->
                  (* No spare KLT: ask the creator and keep running until
                     the next signal (paper §3.1.2 — no livelock: worst
                     case deteriorates to 1:1). *)
                  if rt.observed then emit rt w.rank Recorder.ev_preempt_declined u.uid 0;
                  request_klt_creation rt w ~waker:klt;
                  go left
              | Some nklt ->
                  (* Hand the worker over before sleeping. *)
                  detach_klt rt klt;
                  attach_klt rt w nklt;
                  if rt.observed then
                    emit rt w.rank Recorder.ev_klt_remap (Kernel.klt_id nklt) 0;
                  send_parked rt ~waker:klt nklt (`Attach w);
                  klt_switch_preempt rt w u klt (fun () -> go left))
        end
  in
  go d

and handler rt (u : ult) : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> on_finish rt u);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Ult.Compute d ->
            Some (fun (k : (a, unit) Effect.Deep.continuation) -> do_compute rt u k d)
        | Ult.Blocking_io d ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let w = Option.get u.cur_worker in
                let klt = Option.get w.wklt in
                (* The syscall blocks this worker's KLT; preemption
                   signals interrupt it and SA_RESTART resumes it. *)
                let restarts =
                  match
                    Kernel.blocking_syscall rt.kernel klt ~duration:d ~sa_restart:true
                  with
                  | `Done r -> r
                  | `Eintr _ -> assert false (* sa_restart never fails *)
                in
                (* Signals while blocked may have flagged a preemption
                   that no longer applies. *)
                w.preempt_request <- false;
                Metrics.add_io_restarts rt.metrics w.rank restarts;
                Effect.Deep.continue k restarts)
        | Ult.Yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let w = Option.get u.cur_worker in
                (match w.wklt with
                | Some klt -> Kernel.consume rt.kernel klt (costs rt).Machine.ult_ctx_switch
                | None -> ());
                if rt.observed then emit rt w.rank Recorder.ev_yield u.uid 0;
                u.work <- Some (fun () -> Effect.Deep.continue k ());
                u.ustate <- U_ready;
                u.cur_worker <- None;
                w.current <- None;
                rt.sched.on_yielded rt w u)
        | Ult.Now ->
            Some (fun (k : (a, unit) Effect.Deep.continuation) ->
                Effect.Deep.continue k (now rt))
        | Ult.Self ->
            Some (fun (k : (a, unit) Effect.Deep.continuation) -> Effect.Deep.continue k u)
        | Ult.Suspend f ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let w = Option.get u.cur_worker in
                if rt.observed then emit rt w.rank Recorder.ev_block u.uid 0;
                u.work <- Some (fun () -> Effect.Deep.continue k ());
                u.ustate <- U_blocked;
                u.cur_worker <- None;
                w.current <- None;
                f u)
        | _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* Worker scheduler loop. *)

let initiate_stop rt =
  if not rt.stopping then begin
    rt.stopping <- true;
    List.iter Kernel.Timer.cancel rt.timers;
    Itab.iter
      (fun _ p ->
        p.pmsg <- Some `Exit;
        Kernel.Futex.set p.pfut 1;
        ignore (Kernel.Futex.wake rt.kernel p.pfut 1))
      rt.parked;
    Array.iter
      (fun w ->
        w.active <- true;
        match w.wake_fut with
        | Some f ->
            Kernel.Futex.set f 1;
            ignore (Kernel.Futex.wake rt.kernel f 1)
        | None -> ())
      rt.workers;
    match rt.creator_fut with
    | Some f ->
        Kernel.Futex.set f 1;
        ignore (Kernel.Futex.wake rt.kernel f 1)
    | None -> ()
  end

let stop = initiate_stop

(* The thread [u] runs next on [w], which holds a measured preemption:
   the Table 1 sample, signal post -> switch. *)
let switch_measured rt (w : worker) (u : ult) =
  let lat = now rt -. rt.preempt_post_time.(w.rank) in
  Stats.add rt.preempt_latency_stats lat;
  if rt.observed then
    emit rt w.rank Recorder.ev_preempt_done u.uid (int_of_float (lat *. 1e9));
  w.measure_preempt <- false

(* Start of the idle poll in flight; all-float, so stored flat and
   updated without allocating (a [float ref] would box each store). *)
type idle_mark = { mutable t0 : float }

let rec sched_loop rt klt =
  if not rt.stopping then
    match worker_of rt klt with
    | None -> park_klt rt klt
    | Some w ->
        if not w.active then begin
          suspend_worker rt w klt;
          sched_loop rt klt
        end
        else begin
          (* Injected worker stall: the scheduler loop loses its core to
             unrelated kernel work for one poll quantum, widening the
             window in which other workers must make progress alone. *)
          (match Engine.controller (Kernel.engine rt.kernel) with
          | Some c when Choice.fault c ~tag:"worker.stall" ->
              Kernel.compute rt.kernel klt rt.cfg.Config.idle_poll
          | Some _ | None -> ());
          (match rt.sched.next rt w with
          | Some u -> run_entry rt w klt u
          | None -> (
              if rt.unfinished <= 0 && rt.cfg.Config.autostop then initiate_stop rt
              else
                match idle_spin rt w klt with
                | Some u -> run_entry rt w klt u
                | None -> ()));
          sched_loop rt klt
        end

and park_klt rt klt =
  let p = parking_of rt klt in
  let rec wait () =
    if not rt.stopping then
      match p.pmsg with
      | Some (`Attach _w) ->
          p.pmsg <- None;
          Kernel.Futex.set p.pfut 0;
          sched_loop rt klt
      | Some `Exit -> ()
      | None ->
          ignore (Kernel.Futex.wait rt.kernel klt p.pfut ~expected:0);
          wait ()
  in
  wait ()

and suspend_worker rt (w : worker) klt =
  let fut = Kernel.Futex.create rt.kernel 0 in
  w.wake_fut <- Some fut;
  ignore (Kernel.Futex.wait rt.kernel klt fut ~expected:0);
  w.wake_fut <- None

(* One idle poll, then — when [Kernel.spin] can run it in the poll's
   completion event — as many further steps of [sched_loop] as find no
   work: the idle-time add, [sched_loop]'s checks and [rt.sched.next].
   [step] declines, before touching anything, wherever [sched_loop]
   would do more than call [next]; [mark.t0] moves to the start of each
   poll it arms.  Returns the thread a stepped [next] found, for
   [sched_loop] to run. *)
and idle_spin rt (w : worker) klt =
  let mark = { t0 = now rt } in
  let found = ref None in
  let step () =
    if
      rt.stopping
      || (rt.unfinished <= 0 && rt.cfg.Config.autostop)
      || (not w.active)
      || match worker_of rt klt with Some w' -> w' != w | None -> true
    then Kernel.Spin_decline
    else begin
      rt.idle_time.(w.rank) <- rt.idle_time.(w.rank) +. (now rt -. mark.t0);
      match rt.sched.next rt w with
      | None ->
          mark.t0 <- now rt;
          Kernel.Spin_again
      | Some _ as u ->
          found := u;
          Kernel.Spin_stop
    end
  in
  Kernel.spin rt.kernel klt rt.cfg.Config.idle_poll ~step;
  match !found with
  | Some _ as u -> u (* the step that found it added the idle time *)
  | None ->
      rt.idle_time.(w.rank) <- rt.idle_time.(w.rank) +. (now rt -. mark.t0);
      None

and run_entry rt (w : worker) klt (u : ult) =
  match u.ustate with
  | U_ready ->
      w.preempt_request <- false;
      u.ustate <- U_running;
      u.cur_worker <- Some w;
      w.current <- Some u;
      Kernel.consume rt.kernel klt (costs rt).Machine.ult_ctx_switch;
      if u.last_worker >= 0 && u.last_worker <> w.rank then begin
        (* Cache refill scales with the thread's working set and with how
           much state it built on its previous worker (fully hot after
           ~1 ms of CPU). *)
        let hotness = Float.min 1.0 (u.ult_cpu_since_move /. 1e-3) in
        Kernel.add_overhead rt.kernel klt
          ((costs rt).Machine.ult_migration_cache_penalty *. hotness *. u.footprint);
        u.ult_cpu_since_move <- 0.0
      end;
      u.last_worker <- w.rank;
      if rt.observed then emit rt w.rank Recorder.ev_run u.uid 0;
      if w.measure_preempt then switch_measured rt w u;
      (match u.work with
      | Some work ->
          u.work <- None;
          work ()
      | None -> assert false);
      (* After a KLT switch this process may now serve a different
         worker (or none): consult the mapping, not [w]. *)
      (match worker_of rt klt with Some w' -> w'.current <- None | None -> ())
  | U_bound -> resume_bound rt w klt u
  | U_running | U_blocked | U_finished ->
      invalid_arg (Printf.sprintf "Runtime: scheduled %s in state %s" u.uname
           (match u.ustate with
           | U_running -> "running"
           | U_blocked -> "blocked"
           | U_finished -> "finished"
           | U_ready | U_bound -> assert false))

(* Resume path of KLT-switching (paper Fig. 3): wake the KLT bound to
   the thread, hand it our worker, and park our own KLT. *)
and resume_bound rt (w : worker) klt (u : ult) =
  let bklt = Option.get u.bound_klt in
  if w.measure_preempt then switch_measured rt w u;
  detach_klt rt klt;
  attach_klt rt w bklt;
  w.current <- None;
  (match u.bound_wake with Some f -> f klt w | None -> assert false);
  pool_push rt w klt

(* ------------------------------------------------------------------ *)
(* Preemption signal handling. *)

let has_preemptive (w : worker) =
  match w.current with Some u -> u.kind <> Nonpreemptive | None -> false

let maybe_request_preempt rt (w : worker) posted =
  match w.current with
  | Some u when u.kind <> Nonpreemptive && not w.preempt_request ->
      w.preempt_request <- true;
      rt.preempt_post_time.(w.rank) <- posted;
      w.measure_preempt <- true;
      rt.preempt_signals <- rt.preempt_signals + 1;
      if rt.observed then emit rt w.rank Recorder.ev_preempt_req u.uid 0
  | _ -> ()

let post_forward rt ~sender (w : worker) =
  match w.wklt with
  | Some klt ->
      Itab.Float.set rt.signal_posted (Kernel.klt_id klt) (now rt);
      if rt.observed then emit rt w.rank Recorder.ev_sig_post w.rank 1;
      Kernel.pthread_kill rt.kernel ~sender klt sig_forward
  | None -> ()

let on_preempt_signal rt ~from_timer _k klt =
  (* NaN = no post time recorded (stray signal). *)
  let posted = Itab.Float.take rt.signal_posted (Kernel.klt_id klt) in
  (match worker_of rt klt with
  | None -> () (* parked or bound KLT caught a stray signal *)
  | Some w -> (
      maybe_request_preempt rt w (if Float.is_nan posted then now rt else posted);
      match rt.cfg.Config.timer_strategy with
      | Config.Per_process_one_to_all when from_timer ->
          Array.iter
            (fun w' -> if w' != w && has_preemptive w' then post_forward rt ~sender:klt w')
            rt.workers
      | Config.Per_process_chain ->
          (* Forward to the next worker (in rank order) running a
             preemptive thread — one hop per handler. *)
          let n = Array.length rt.workers in
          let rec probe i =
            if i < n then
              let w' = rt.workers.(i) in
              if w' != w && has_preemptive w' then post_forward rt ~sender:klt w'
              else probe (i + 1)
          in
          probe (w.rank + 1)
      | Config.No_timer | Config.Per_worker_creation | Config.Per_worker_aligned
      | Config.Per_process_one_to_all ->
          ()));
  if not (Float.is_nan posted) then Stats.add rt.interrupt_stats (now rt -. posted)

(* ------------------------------------------------------------------ *)
(* KLT creator (paper §3.1.2): KLT creation is not async-signal-safe, so
   preemption handlers delegate it to this dedicated KLT. *)

let spawn_pool_klt rt ?creator () =
  let name = Printf.sprintf "pool-klt%d" rt.klts_created in
  rt.klts_created <- rt.klts_created + 1;
  let klt =
    Kernel.spawn rt.kernel ?creator ~name (fun klt ->
        if not rt.stopping then park_klt rt klt)
  in
  (* Carrier KLT: its own state is a thin stack; thread-data movement is
     charged per-ULT (see Types.ult.footprint). *)
  Kernel.set_footprint rt.kernel klt 0.05;
  Itab.set rt.parked (Kernel.klt_id klt)
    { pfut = Kernel.Futex.create rt.kernel 0; pmsg = None };
  klt

let creator_loop rt klt =
  let fut = Option.get rt.creator_fut in
  let rec loop () =
    if not rt.stopping then
      if rt.creator_requests > 0 then begin
        rt.creator_requests <- rt.creator_requests - 1;
        (* Top up only while the free pool is low: demand (bound KLTs)
           pulls supply up to at most one KLT per suspended thread — the
           paper's "deteriorates to 1:1" worst case — while a stale
           request backlog cannot overshoot. *)
        if Queue.length rt.global_klts < Array.length rt.workers then begin
          let nklt = spawn_pool_klt rt ~creator:klt () in
          Queue.push nklt rt.global_klts
        end;
        loop ()
      end
      else begin
        Kernel.Futex.set fut 0;
        ignore (Kernel.Futex.wait rt.kernel klt fut ~expected:0);
        loop ()
      end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Construction. *)

let create ?(config = Config.default) ?scheduler kernel ~n_workers =
  if n_workers <= 0 then invalid_arg "Runtime.create: n_workers <= 0";
  if n_workers > (Kernel.machine kernel).Machine.cores then
    invalid_arg "Runtime.create: more workers than cores";
  let config = Config.validate config in
  let sched = match scheduler with Some s -> s | None -> Sched_ws.make () in
  let rng = Rng.split (Engine.rng (Kernel.engine kernel)) in
  let workers =
    Array.init n_workers (fun rank ->
        {
          rank;
          wklt = None;
          current = None;
          preempt_request = false;
          measure_preempt = false;
          active = true;
          wake_fut = None;
          q_main = Dq.create ();
          q_aux = Dq.create ();
          local_klts = Queue.create ();
          w_rng = Rng.split rng;
          preempts_taken = 0;
        })
  in
  {
    kernel;
    cfg = config;
    workers;
    sched;
    n_active = n_workers;
    creator_fut = Some (Kernel.Futex.create kernel 0);
    global_klts = Queue.create ();
    parked = Itab.create 64;
    klt_pinned = Itab.create 64;
    worker_of_klt = Itab.create 64;
    creator_requests = 0;
    klts_created = 0;
    unfinished = 0;
    stopping = false;
    started = false;
    cur_interval = config.Config.interval;
    timers = [];
    idle_time = Array.make n_workers 0.0;
    preempt_post_time = Array.make n_workers 0.0;
    signal_posted = Itab.Float.create 64;
    interrupt_stats = Stats.create ();
    preempt_latency_stats = Stats.create ();
    next_uid = 0;
    main_queued = 0;
    preempt_signals = 0;
    klt_switches = 0;
    metrics = Metrics.create ~n_workers;
    recorder = Recorder.create ~n_workers ~capacity:config.Config.recorder_capacity;
    observed = false;
  }

let create ?config ?scheduler kernel ~n_workers =
  let rt = create ?config ?scheduler kernel ~n_workers in
  if rt.cfg.Config.metrics_enabled then set_metrics_enabled rt true;
  (* Installing the engine observer only while recording keeps the
     kernel's disabled path at one option check per emit site. *)
  if rt.cfg.Config.recorder_enabled then set_recorder_enabled rt true;
  rt

let spawn rt ?(kind = Nonpreemptive) ?(priority = 0) ?(footprint = 1.0) ?home ?name body =
  let uid = rt.next_uid in
  rt.next_uid <- uid + 1;
  let uname = match name with Some n -> n | None -> Printf.sprintf "ult%d" uid in
  let home = match home with Some h -> h | None -> uid mod Array.length rt.workers in
  let u =
    {
      uid;
      uname;
      kind;
      priority;
      footprint;
      ustate = U_ready;
      work = None;
      cur_worker = None;
      home;
      last_worker = -1;
      bound_klt = None;
      bound_wake = None;
      resume_worker = None;
      join_waiters = [];
      preemptions = 0;
      ult_cpu_since_move = 0.0;
    }
  in
  u.work <- Some (fun () -> Effect.Deep.match_with body () (handler rt u));
  rt.unfinished <- rt.unfinished + 1;
  if rt.observed then emit rt (global_ring rt) Recorder.ev_spawn u.uid 0;
  rt.sched.on_ready rt u;
  u

let install_timers rt =
  let interval = rt.cur_interval in
  let target_of (w : worker) () =
    if rt.stopping then None
    else
      match w.wklt with
      | Some klt ->
          Itab.Float.set rt.signal_posted (Kernel.klt_id klt) (now rt);
          if rt.observed then emit rt w.rank Recorder.ev_sig_post w.rank 0;
          Some klt
      | None -> None
  in
  let per_worker first_of =
    Array.to_list rt.workers
    |> List.map (fun w ->
           Kernel.Timer.create rt.kernel ~first:(first_of w) ~interval ~signo:sig_timer
             ~target:(target_of w) ())
  in
  match rt.cfg.Config.timer_strategy with
  | Config.No_timer -> []
  | Config.Per_worker_creation -> per_worker (fun _ -> interval)
  | Config.Per_worker_aligned ->
      (* "Timer alignment": spread expiries across the interval so
         deliveries never coincide (paper §3.2.1). *)
      let n = float_of_int (Array.length rt.workers) in
      per_worker (fun w -> interval *. (float_of_int (w.rank + 1) /. n))
  | Config.Per_process_one_to_all | Config.Per_process_chain ->
      [
        Kernel.Timer.create rt.kernel ~interval ~signo:sig_timer
          ~target:(target_of rt.workers.(0))
          ();
      ]

let start rt =
  if rt.started then invalid_arg "Runtime.start: already started";
  rt.started <- true;
  Kernel.sigaction rt.kernel sig_timer (fun k klt -> on_preempt_signal rt ~from_timer:true k klt);
  Kernel.sigaction rt.kernel sig_forward (fun k klt ->
      on_preempt_signal rt ~from_timer:false k klt);
  Kernel.sigaction rt.kernel sig_resume (fun _ _ -> ());
  let ncores = (Kernel.machine rt.kernel).Machine.cores in
  Array.iter
    (fun w ->
      let klt =
        Kernel.spawn rt.kernel
          ~affinity:(Cpuset.of_list ncores [ w.rank ])
          ~name:(Printf.sprintf "worker%d" w.rank)
          (fun klt ->
            attach_klt rt w klt;
            sched_loop rt klt)
      in
      Kernel.set_footprint rt.kernel klt 0.05;
      Itab.set rt.parked (Kernel.klt_id klt)
        { pfut = Kernel.Futex.create rt.kernel 0; pmsg = None };
      Itab.set rt.klt_pinned (Kernel.klt_id klt) w.rank)
    rt.workers;
  ignore (Kernel.spawn rt.kernel ~name:"klt-creator" (fun klt -> creator_loop rt klt));
  rt.timers <- install_timers rt

(* Re-arm the preemption timers at a new interval — the paper's
   "configurable preemption intervals" (§4.2): packing favours short
   intervals, compute-heavy phases favour long ones. *)
let set_preemption_interval rt interval =
  if interval <= 0.0 then invalid_arg "Runtime.set_preemption_interval: interval <= 0";
  rt.cur_interval <- interval;
  if rt.started && not rt.stopping then begin
    List.iter Kernel.Timer.cancel rt.timers;
    rt.timers <- install_timers rt
  end

let preemption_interval rt = rt.cur_interval

let set_active_workers rt n =
  let n = Stdlib.max 1 (Stdlib.min n (Array.length rt.workers)) in
  rt.n_active <- n;
  Array.iter
    (fun w ->
      if w.rank < n then begin
        w.active <- true;
        match w.wake_fut with
        | Some f ->
            Kernel.Futex.set f 1;
            ignore (Kernel.Futex.wake rt.kernel f 1)
        | None -> ()
      end
      else w.active <- false)
    rt.workers
