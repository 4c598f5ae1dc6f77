(* Worker records are written from two sides: the owner bumps
   [rng_state] on every steal probe while the ticker thread sets
   [preempt] once per interval.  Both get their own cache-line
   neighborhood: the record is padded past 64 bytes so adjacent workers
   in [pool.workers] do not share a line, and each [preempt] atomic is
   allocated with a live filler ([pad_keep]) between it and the next
   worker's atomic so the flags do not end up packed into one line
   either (the filler is reachable from the record, so compaction cannot
   drop it and re-pack the atomics). *)
type worker = {
  wid : int;
  w_sp : int; (* owning sub-pool id *)
  w_slot : int; (* index within the sub-pool's scheduler *)
  preempt : bool Atomic.t; (* set by the ticker, cleared at safe points *)
  (* Current preemption quantum in seconds.  Written only by the ticker
     thread (at most once per quantum expiry), read racily by [stats];
     a stale read is fine for diagnostics.  Fixed-interval pools keep it
     pinned at [preempt_interval]; tickerless pools at 0. *)
  mutable w_quantum : float;
  mutable rng_state : int;
  (* Owner-written counters, aggregated racily by [stats] (stale reads
     are fine for diagnostics); keeping them plain avoids shared-atomic
     traffic on the spawn/steal fast paths. *)
  mutable w_spawned : int;
  mutable w_local_steals : int;
  mutable w_overflow_in : int;
  (* Same discipline: the extra tasks a batched raid flushed into this
     worker's own queue (beyond the one returned to run).  [w_spill] is
     the cached re-push closure handed to those raids. *)
  mutable w_batch_stolen : int;
  mutable w_spill : (unit -> unit) -> unit;
  (* Park accounting, owner-written on the park slow path only (the
     spin path never touches them): parks/wakes count condvar sleeps,
     [w_idle_s] accumulates the seconds spent inside them.  The
     telemetry sampler differences [w_idle_s] between sweeps to derive
     utilization. *)
  mutable w_parks : int;
  mutable w_wakes : int;
  mutable w_idle_s : float;
  pad_keep : int array;
  mutable pad0 : int;
  mutable pad1 : int;
  mutable pad2 : int;
  mutable pad3 : int;
}

(* A named sub-pool: a worker subset with its own scheduler instance
   and its own park group.  Parking is per-sub-pool so a push can wake
   a worker that will actually serve it: a member first, else (via
   [notify_push]'s second branch) an overflow-capable sleeper from
   another sub-pool. *)
type subpool = {
  sp_id : int;
  sp_name : string;
  sp_overflow : bool; (* members may steal cross-sub-pool when idle *)
  sp_members : int array; (* global worker ids, slot order *)
  inst : Scheduler.instance;
  sp_lock : Mutex.t; (* held only to park and to signal sleepers *)
  sp_cond : Condition.t;
  sp_epoch : int Atomic.t; (* bumped on every push: lost-wakeup guard *)
  sp_sleepers : int Atomic.t; (* members inside the parking protocol *)
  sp_ext_spawned : int Atomic.t; (* targeted/external submissions *)
  sp_stolen_away : int Atomic.t; (* tasks overflow-stolen from here *)
}

type pool = {
  workers : worker array;
  subpools : subpool array;
  mutable doms : unit Domain.t list;
  total_sleepers : int Atomic.t; (* sum of all sp_sleepers *)
  shutdown : bool Atomic.t;
  preempt_interval : float option;
  quantum_bounds : (float * float) option; (* (min, max); Some iff adaptive *)
  mutable ticker : Thread.t option;
  preempt_count : int Atomic.t;
  recorder : Preempt_core.Recorder.t;
  rec_t0 : float; (* wall-clock origin of recorder timestamps *)
  telemetry : Preempt_core.Telemetry.t;
  tel_every : int; (* sample every N ticker sweeps *)
}

(* Promise state machine: one atomic word, CAS [Pending -> Resolved /
   Failed].  [resolve] and [await]'s fast path never touch a lock;
   waiters accumulate by CAS-consing onto the pending list and are woken
   in FIFO registration order (the cons list is reversed once on
   resolve). *)
type 'a state = Pending of (unit -> unit) list | Resolved of 'a | Failed of exn

type 'a promise = 'a state Atomic.t

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Suspend_or :
      ((unit -> unit) -> [ `Continue | `Suspended ])
      -> unit Effect.t

(* Which worker the current thread is. *)
let current_worker : (pool * worker) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let self () =
  match Domain.DLS.get current_worker with
  | Some pw -> pw
  | None -> failwith "Fiber: not inside a fiber runtime worker"

(* ------------------------------------------------------------------ *)
(* Wakeups.

   Pushers never broadcast.  Per sub-pool, the protocol against lost
   wakeups is the one the flat pool used:

     pusher:  scheduler push; incr sp_epoch; if sp_sleepers > 0 then
              lock; signal; unlock
     sleeper: incr sp_sleepers (and the pool total); e := sp_epoch;
              full find_task sweep; if still empty: lock; if sp_epoch =
              e then wait; unlock; decr both

   All counters are SC atomics, so either the pusher observes the
   sleeper's [sp_sleepers] increment (and signals under the lock the
   sleeper waits on), or the sleeper's subsequent sweep observes the
   pusher's push — the under-lock [sp_epoch = e] re-check then fails and
   the sleeper retries instead of sleeping.

   The sub-pool twist: when the target sub-pool has no sleeper of its
   own (all members busy) but somebody is parked elsewhere, the pusher
   wakes one overflow-capable sleeper from another sub-pool — its
   re-sweep reaches the task through the cross-sub-pool overflow path.
   That sleeper's own epoch is bumped first so the wake cannot be lost
   to its park-time re-check.  Pools with no sleepers anywhere pay one
   atomic increment and two atomic loads per push — no mutex, no
   condvar. *)

let signal_sp sp =
  Mutex.lock sp.sp_lock;
  Condition.signal sp.sp_cond;
  Mutex.unlock sp.sp_lock

let notify_push pool sp =
  Atomic.incr sp.sp_epoch;
  if Atomic.get sp.sp_sleepers > 0 then signal_sp sp
  else if Atomic.get pool.total_sleepers > 0 then begin
    let sps = pool.subpools in
    let k = Array.length sps in
    let rec wake_other i =
      if i < k then
        let q = sps.(i) in
        if q.sp_id <> sp.sp_id && q.sp_overflow && Atomic.get q.sp_sleepers > 0
        then begin
          Atomic.incr q.sp_epoch;
          signal_sp q
        end
        else wake_other (i + 1)
    in
    wake_other 0
  end

(* Broadcast: only for state visible to *every* worker — shutdown and
   run-completion ([until] flipping), where one targeted signal could
   wake the wrong sleeper and strand the one whose predicate changed. *)
let notify_all pool =
  Array.iter
    (fun sp ->
      Atomic.incr sp.sp_epoch;
      Mutex.lock sp.sp_lock;
      Condition.broadcast sp.sp_cond;
      Mutex.unlock sp.sp_lock)
    pool.subpools

(* Re-queue a task belonging to sub-pool [sp] (yield re-queues, wakes
   after suspension).  Fibers are pinned: no matter which worker runs
   the wake — an overflow thief, a sibling sub-pool's member resolving
   a promise, a non-worker thread — the fiber goes back to its home
   sub-pool, on the fast path when the current worker is a member. *)
let requeue pool sp ~prio ~front task =
  (match Domain.DLS.get current_worker with
  | Some (_, w) when w.w_sp = sp.sp_id ->
      if front then sp.inst.i_push_front ~slot:w.w_slot ~prio task
      else sp.inst.i_push ~slot:w.w_slot ~prio task
  | _ ->
      if front then sp.inst.i_push_front ~slot:(-1) ~prio task
      else sp.inst.i_push ~slot:(-1) ~prio task);
  notify_push pool sp

(* Cheap xorshift for victim selection. *)
let next_rand w =
  let x = w.rng_state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  w.rng_state <- x land max_int;
  w.rng_state

let record_steal pool w ~thief ~victim ~batch =
  let r = pool.recorder in
  if Preempt_core.Recorder.enabled r then begin
    let ts = Unix.gettimeofday () -. pool.rec_t0 in
    Preempt_core.Recorder.emit r w.wid ts Preempt_core.Recorder.ev_pool_steal
      thief victim;
    Preempt_core.Recorder.emit r w.wid ts Preempt_core.Recorder.ev_steal_batch
      batch victim
  end

(* Batched-raid caps.  A same-sub-pool raid may carry up to
   [batch_local] tasks home in one trip (the deque's steal-half cap
   takes over on short runs, so a victim is never drained past half);
   cross-sub-pool overflow raids stay small — the thief is only
   helping out, and hauling a large batch across the isolation
   boundary would invert the sub-pools' pinning intent. *)
let batch_local = 8
let batch_overflow = 2

(* The steal protocol: own sub-pool first (pop, then same-sub-pool
   batched steal); only a member whose own sub-pool had nothing
   runnable overflows cross-sub-pool — and only if its sub-pool allows
   it.  Raids are batched: the first stolen task is returned to run,
   the rest are flushed into the thief's own slot through [w.w_spill]
   (which also counts them), amortizing victim selection, counters and
   flight events over the whole batch.  Every successful raid is
   attributed: per-worker counters always, an [ev_pool_steal] plus an
   [ev_steal_batch] (batch size, victim sub-pool) flight event when
   the recorder is armed.  After a batch with extras we bump the
   epoch via [notify_push]: the spilled tasks are now stealable from
   our slot, and a sibling mid-park-protocol must not sleep through
   them (we would run them eventually, but a waking sibling drains
   them sooner). *)
let find_task pool w =
  let sp = pool.subpools.(w.w_sp) in
  match sp.inst.i_pop ~slot:w.w_slot with
  | Some _ as r -> r
  | None -> (
      let rng () = next_rand w in
      (* [w_batch_stolen] only moves when a raid returns [Some] (spill
         is never invoked on a failed raid), so one baseline serves
         both the local and the overflow attempts. *)
      let b0 = w.w_batch_stolen in
      match
        sp.inst.i_steal_batch ~slot:w.w_slot ~rng ~max:batch_local
          ~spill:w.w_spill
      with
      | Some _ as r ->
          w.w_local_steals <- w.w_local_steals + 1;
          let batch = 1 + w.w_batch_stolen - b0 in
          if batch > 1 then notify_push pool sp;
          record_steal pool w ~thief:sp.sp_id ~victim:sp.sp_id ~batch;
          r
      | None ->
          let k = Array.length pool.subpools in
          if k > 1 && sp.sp_overflow then begin
            let start = next_rand w mod k in
            let rec overflow i =
              if i = k then None
              else
                let v = pool.subpools.((start + i) mod k) in
                if v.sp_id = sp.sp_id then overflow (i + 1)
                else
                  match
                    v.inst.i_steal_batch ~slot:(-1) ~rng ~max:batch_overflow
                      ~spill:w.w_spill
                  with
                  | Some _ as r ->
                      w.w_overflow_in <- w.w_overflow_in + 1;
                      let batch = 1 + w.w_batch_stolen - b0 in
                      (* Spilled tasks migrated too: each one left [v]. *)
                      for _ = 1 to batch do
                        Atomic.incr v.sp_stolen_away
                      done;
                      if batch > 1 then notify_push pool sp;
                      record_steal pool w ~thief:sp.sp_id ~victim:v.sp_id ~batch;
                      r
                  | None -> overflow (i + 1)
            in
            overflow 0
          end
          else None)

let handler pool sp ~prio =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some
              (fun (k : (a, unit) continuation) ->
                (* Front of the home scheduler: the owner runs every
                   other local task first, so yield actually gives
                   way. *)
                requeue pool sp ~prio ~front:true (fun () -> continue k ()))
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                register (fun () ->
                    requeue pool sp ~prio ~front:false (fun () -> continue k ())))
        | Suspend_or decide ->
            Some
              (fun (k : (a, unit) continuation) ->
                let wake () =
                  requeue pool sp ~prio ~front:false (fun () -> continue k ())
                in
                match decide wake with
                | `Continue -> continue k ()
                | `Suspended -> ())
        | _ -> None);
  }

let make_fiber pool sp ~prio body =
 fun () -> Effect.Deep.match_with body () (handler pool sp ~prio)

(* ------------------------------------------------------------------ *)
(* Promises. *)

let promise () = Atomic.make (Pending [])

let rec resolve p outcome =
  match Atomic.get p with
  | Pending pw as cur ->
      if Atomic.compare_and_set p cur outcome then
        (* [pw] accumulated newest-first; wake in FIFO registration
           order (test_fsync pins this). *)
        List.iter (fun wake -> wake ()) (List.rev pw)
      else resolve p outcome
  | Resolved _ | Failed _ -> ()

let is_resolved p =
  match Atomic.get p with Pending _ -> false | Resolved _ | Failed _ -> true

let find_sp pool name =
  let sps = pool.subpools in
  let rec go i =
    if i = Array.length sps then
      invalid_arg (Printf.sprintf "Fiber: unknown sub-pool %S" name)
    else if sps.(i).sp_name = name then sps.(i)
    else go (i + 1)
  in
  go 0

(* [slot] is the spawning member's own slot, or -1 for the scheduler's
   external path, which is counted as a submission to [sp]. *)
let spawn_in pool sp ~prio ~slot body =
  let p = promise () in
  let fiber =
    make_fiber pool sp ~prio (fun () ->
        match body () with
        | v -> resolve p (Resolved v)
        | exception e -> resolve p (Failed e))
  in
  if slot >= 0 then sp.inst.i_push ~slot ~prio fiber
  else begin
    sp.inst.i_push ~slot:(-1) ~prio fiber;
    Atomic.incr sp.sp_ext_spawned
  end;
  notify_push pool sp;
  p

let spawn ?pool:target ?(prio = 0) body =
  let pool, w = self () in
  match target with
  | None ->
      (* Classic fork: a LIFO child of the calling worker, inside the
         caller's own sub-pool. *)
      w.w_spawned <- w.w_spawned + 1;
      spawn_in pool pool.subpools.(w.w_sp) ~prio ~slot:w.w_slot body
  | Some name ->
      (* Targeted spawn: a submission to the named sub-pool as a whole.
         It takes the external path even when the caller is a member,
         so it is served like any other incoming request rather than as
         the caller's LIFO child. *)
      spawn_in pool (find_sp pool name) ~prio ~slot:(-1) body

let submit p ?pool:target ?(prio = 0) body =
  let sp = match target with Some name -> find_sp p name | None -> p.subpools.(0) in
  spawn_in p sp ~prio ~slot:(-1) body

let await p =
  let rec value () =
    match Atomic.get p with
    | Resolved v -> v
    | Failed e -> raise e
    | Pending _ ->
        Effect.perform
          (Suspend
             (fun wake ->
               let rec register () =
                 match Atomic.get p with
                 | Pending ws as cur ->
                     if not (Atomic.compare_and_set p cur (Pending (wake :: ws)))
                     then register ()
                 | Resolved _ | Failed _ -> wake ()
               in
               register ()));
        value ()
  in
  value ()

let yield () = Effect.perform Yield

let suspend_or decide = Effect.perform (Suspend_or decide)

let check () =
  let pool, w = self () in
  (* Fast path: one atomic load. *)
  if Atomic.get w.preempt then begin
    Atomic.set w.preempt false;
    Atomic.incr pool.preempt_count;
    yield ()
  end

(* ------------------------------------------------------------------ *)
(* Workers. *)

(* Spin-then-park: a worker that found nothing re-probes a few times
   with exponentially growing [cpu_relax] backoff before touching the
   sub-pool mutex.  Short idle gaps (the common case in fork–join churn)
   resolve without a futex round-trip; persistent idleness parks. *)
let spin_rounds = 8

let backoff round =
  let spins = 1 lsl (if round < 6 then round else 6) in
  for _ = 1 to spins do
    Domain.cpu_relax ()
  done

let worker_loop pool w ~until =
  Domain.DLS.set current_worker (Some (pool, w));
  let sp = pool.subpools.(w.w_sp) in
  let stop () = until () || Atomic.get pool.shutdown in
  (* Returns [None] only when [stop] was observed. *)
  let rec next_task round =
    if stop () then None
    else
      match find_task pool w with
      | Some _ as r -> r
      | None ->
          if round < spin_rounds then begin
            backoff round;
            next_task (round + 1)
          end
          else park ()
  and park () =
    Atomic.incr sp.sp_sleepers;
    Atomic.incr pool.total_sleepers;
    let e = Atomic.get sp.sp_epoch in
    (* Re-sweep after announcing: a pusher that missed our increment
       must have bumped [sp_epoch] first, failing the re-check below.
       The sweep includes the overflow path, so a member only parks
       when no task it may legally take exists anywhere. *)
    match find_task pool w with
    | Some _ as r ->
        Atomic.decr sp.sp_sleepers;
        Atomic.decr pool.total_sleepers;
        r
    | None ->
        Mutex.lock sp.sp_lock;
        if Atomic.get sp.sp_epoch = e && not (stop ()) then begin
          w.w_parks <- w.w_parks + 1;
          let t0 = Unix.gettimeofday () in
          Condition.wait sp.sp_cond sp.sp_lock;
          w.w_idle_s <- w.w_idle_s +. (Unix.gettimeofday () -. t0);
          w.w_wakes <- w.w_wakes + 1
        end;
        Mutex.unlock sp.sp_lock;
        Atomic.decr sp.sp_sleepers;
        Atomic.decr pool.total_sleepers;
        next_task 0
  in
  let rec loop () =
    match next_task 0 with
    | Some task ->
        task ();
        loop ()
    | None -> ()
  in
  loop ();
  Domain.DLS.set current_worker None

let domain_main pool w = worker_loop pool w ~until:(fun () -> false)

(* ------------------------------------------------------------------ *)
(* Telemetry sampling.  The sampler rides the preemption ticker: every
   [pool.tel_every] sweeps it stores one point per worker into the
   telemetry rings (making the ticker thread the rings' single
   writer).  All inputs are racy plain-counter reads — Telemetry
   clamps transients — and utilization is derived by differencing each
   worker's cumulative park-idle seconds against the previous sweep,
   using sampler-private state.  Every [tel_rotate] samples the
   sliding sojourn windows rotate, so the rolling sketches cover
   between one and two rotation periods. *)

let tel_rotate = 32

let make_sampler pool =
  let tel = pool.telemetry in
  let n = Array.length pool.workers in
  let prev_idle = Array.make n 0.0 in
  let prev_ts = ref (Unix.gettimeofday ()) in
  let samples = ref 0 in
  fun () ->
    let now = Unix.gettimeofday () in
    let ts = now -. pool.rec_t0 in
    let dt = now -. !prev_ts in
    Array.iter
      (fun w ->
        let sp = pool.subpools.(w.w_sp) in
        let idle = w.w_idle_s in
        let util =
          if dt <= 0.0 then 1.0 else 1.0 -. ((idle -. prev_idle.(w.wid)) /. dt)
        in
        prev_idle.(w.wid) <- idle;
        Preempt_core.Telemetry.sample tel ~worker:w.wid ~ts
          ~depth:(sp.inst.i_length ())
          ~steals_in:(w.w_local_steals + w.w_overflow_in)
          ~steals_out:(Atomic.get sp.sp_stolen_away)
          ~parks:w.w_parks ~wakes:w.w_wakes ~quantum:w.w_quantum ~util)
      pool.workers;
    prev_ts := now;
    incr samples;
    if !samples mod tel_rotate = 0 then Preempt_core.Telemetry.rotate_windows tel

let ticker_loop pool interval =
  let tel = pool.telemetry in
  let sampler = make_sampler pool in
  let sweeps = ref 0 in
  while not (Atomic.get pool.shutdown) do
    Thread.delay interval;
    Array.iter (fun w -> Atomic.set w.preempt true) pool.workers;
    incr sweeps;
    if Preempt_core.Telemetry.enabled tel && !sweeps mod pool.tel_every = 0 then
      sampler ()
  done

(* Adaptive ticker: each worker keeps its own expiry deadline.  When a
   deadline passes, the worker is flagged for preemption and the pure
   [Quantum] controller picks its next quantum from the current
   run-queue depth of the worker's sub-pool (external submissions
   included — [i_length] counts them), shrinking under backlog and
   decaying back toward [interval] when idle.  Deadlines are
   ticker-thread private; only the resulting [w_quantum] is published
   (for [stats]) and an [ev_quantum_change] recorded per move.  The
   sleep between sweeps tracks the nearest deadline, floored at a
   quarter of the adaptive floor so a deeply-shrunk pool does not turn
   the ticker into a spin loop. *)
let ticker_adaptive pool interval ~q_min ~q_max =
  let n = Array.length pool.workers in
  let now0 = Unix.gettimeofday () in
  let deadline = Array.make n (now0 +. interval) in
  let r = pool.recorder in
  let tel = pool.telemetry in
  let sampler = make_sampler pool in
  let sweeps = ref 0 in
  while not (Atomic.get pool.shutdown) do
    let now = Unix.gettimeofday () in
    let nearest = ref infinity in
    Array.iteri
      (fun i w ->
        if now >= deadline.(i) then begin
          Atomic.set w.preempt true;
          let sp = pool.subpools.(w.w_sp) in
          let q =
            Quantum.next
              {
                Quantum.q_current = w.w_quantum;
                q_base = interval;
                q_min;
                q_max;
                q_depth = sp.inst.i_length ();
                q_members = Array.length sp.sp_members;
              }
          in
          if q <> w.w_quantum then begin
            if Preempt_core.Recorder.enabled r then
              Preempt_core.Recorder.emit r
                (Preempt_core.Recorder.global_ring r)
                (now -. pool.rec_t0)
                Preempt_core.Recorder.ev_quantum_change w.wid
                (int_of_float (q *. 1e9));
            w.w_quantum <- q
          end;
          deadline.(i) <- now +. q
        end;
        if deadline.(i) < !nearest then nearest := deadline.(i))
      pool.workers;
    incr sweeps;
    if Preempt_core.Telemetry.enabled tel && !sweeps mod pool.tel_every = 0 then
      sampler ();
    let sleep = !nearest -. Unix.gettimeofday () in
    Thread.delay (Float.min interval (Float.max (q_min /. 4.0) sleep))
  done

let make (cfg : Config.t) =
  (* [Config.make] already validated; re-validate so hand-built records
     go through the same gate. *)
  Config.validate cfg;
  let n = cfg.Config.domains in
  let sp_of = Array.make n (-1) in
  let slot_of = Array.make n (-1) in
  let subpools =
    Array.mapi
      (fun id (s : Config.subpool) ->
        let members = Array.of_list (List.sort_uniq compare s.Config.sp_workers) in
        Array.iteri
          (fun slot wid ->
            sp_of.(wid) <- id;
            slot_of.(wid) <- slot)
          members;
        {
          sp_id = id;
          sp_name = s.Config.sp_name;
          sp_overflow = s.Config.sp_overflow;
          sp_members = members;
          inst = Scheduler.instantiate s.Config.sp_sched ~slots:(Array.length members);
          sp_lock = Mutex.create ();
          sp_cond = Condition.create ();
          sp_epoch = Atomic.make 0;
          sp_sleepers = Atomic.make 0;
          sp_ext_spawned = Atomic.make 0;
          sp_stolen_away = Atomic.make 0;
        })
      (Array.of_list cfg.Config.subpools)
  in
  let interval0 =
    match cfg.Config.preempt_interval with Some dt -> dt | None -> 0.0
  in
  let quantum_bounds =
    if cfg.Config.adaptive then
      Some
        ( Option.value cfg.Config.quantum_min
            ~default:(Quantum.default_min ~base:interval0),
          Option.value cfg.Config.quantum_max
            ~default:(Quantum.default_max ~base:interval0) )
    else None
  in
  let workers =
    Array.init n (fun wid ->
        {
          wid;
          w_sp = sp_of.(wid);
          w_slot = slot_of.(wid);
          preempt = Atomic.make false;
          w_quantum = interval0;
          (* Live spacer between consecutive [preempt] atomics; see the
             [worker] comment. *)
          pad_keep = Array.make 8 0;
          rng_state = (wid * 7919) + 13;
          w_spawned = 0;
          w_local_steals = 0;
          w_overflow_in = 0;
          w_batch_stolen = 0;
          w_spill = ignore;
          w_parks = 0;
          w_wakes = 0;
          w_idle_s = 0.0;
          pad0 = 0;
          pad1 = 0;
          pad2 = 0;
          pad3 = 0;
        })
  in
  (* The spill closure a batched raid flushes extra tasks through:
     fixed per worker (it needs both the worker record and its
     sub-pool instance, so it is tied after both exist), pushing on
     the worker's own slot and counting the haul. *)
  Array.iter
    (fun w ->
      let sp = subpools.(w.w_sp) in
      w.w_spill <-
        (fun task ->
          w.w_batch_stolen <- w.w_batch_stolen + 1;
          sp.inst.i_push ~slot:w.w_slot ~prio:0 task))
    workers;
  let recorder =
    (* A disabled recorder keeps only a token ring so pools without
       observability pay no memory for it. *)
    let capacity =
      if cfg.Config.recorder_enabled then cfg.Config.recorder_capacity else 16
    in
    let r = Preempt_core.Recorder.create ~n_workers:n ~capacity in
    Preempt_core.Recorder.set_enabled r cfg.Config.recorder_enabled;
    r
  in
  let telemetry =
    (* Same discipline as the recorder: a disabled telemetry keeps only
       token rings (and no windows) so it costs no memory. *)
    let capacity =
      if cfg.Config.telemetry_enabled then cfg.Config.telemetry_capacity else 4
    in
    let channels =
      if cfg.Config.telemetry_enabled then cfg.Config.telemetry_channels else 0
    in
    let t = Preempt_core.Telemetry.create ~n_workers:n ~capacity ~channels in
    Preempt_core.Telemetry.set_enabled t cfg.Config.telemetry_enabled;
    t
  in
  let pool =
    {
      workers;
      subpools;
      doms = [];
      total_sleepers = Atomic.make 0;
      shutdown = Atomic.make false;
      preempt_interval = cfg.Config.preempt_interval;
      quantum_bounds;
      ticker = None;
      preempt_count = Atomic.make 0;
      recorder;
      rec_t0 = Unix.gettimeofday ();
      telemetry;
      tel_every = cfg.Config.telemetry_every;
    }
  in
  (* Worker 0 is the caller inside [run]; spawn domains for the rest. *)
  pool.doms <-
    List.init (n - 1) (fun i ->
        Domain.spawn (fun () -> domain_main pool workers.(i + 1)));
  (match (cfg.Config.preempt_interval, quantum_bounds) with
  | Some dt, Some (q_min, q_max) ->
      pool.ticker <-
        Some (Thread.create (fun () -> ticker_adaptive pool dt ~q_min ~q_max) ())
  | Some dt, None ->
      pool.ticker <- Some (Thread.create (fun () -> ticker_loop pool dt) ())
  | None, _ -> ());
  pool

let domains pool = Array.length pool.workers

let subpools pool =
  Array.to_list (Array.map (fun sp -> sp.sp_name) pool.subpools)

let preemptions pool = Atomic.get pool.preempt_count

let recorder pool = pool.recorder

let telemetry pool = pool.telemetry

(* True while the current worker's preemption flag is raised, without
   consuming it: one DLS read plus one atomic load.  Lets a workload
   bracket the [check ()] it is about to take with span events —
   benignly racy (a flag raised after the load is simply seen by the
   next probe). *)
let preempt_pending () =
  match Domain.DLS.get current_worker with
  | Some (_, w) -> Atomic.get w.preempt
  | None -> false

(* Emit a flight event from inside a fiber into the current worker's
   ring — the fiber runs on exactly one worker at a time, so the ring
   stays single-writer.  No-op outside a worker or with the recorder
   disabled (one boolean load).  [at] is an absolute wall-clock time
   overriding "now", for events whose logical time precedes the call
   (e.g. a request's scheduled arrival). *)
let emit_flight ?at code a b =
  match Domain.DLS.get current_worker with
  | Some (pool, w) ->
      let r = pool.recorder in
      if Preempt_core.Recorder.enabled r then
        let wall = match at with Some t -> t | None -> Unix.gettimeofday () in
        Preempt_core.Recorder.emit r w.wid (wall -. pool.rec_t0) code a b
  | None -> ()

(* Feed the current worker's sliding sojourn window for [channel].
   Called on the worker that completed the request, so each window
   keeps its single writer.  No-op outside a worker or with telemetry
   disabled. *)
let telemetry_observe ~channel v =
  match Domain.DLS.get current_worker with
  | Some (pool, w) ->
      let tel = pool.telemetry in
      if Preempt_core.Telemetry.enabled tel then
        Preempt_core.Telemetry.observe tel ~worker:w.wid ~channel v
  | None -> ()

(* Wall-clock origin of recorder/telemetry timestamps, for callers
   that emit events with [~at] or align external clocks. *)
let clock_origin pool = pool.rec_t0

type subpool_stats = {
  st_name : string;
  st_sched : string;
  st_workers : int;
  st_spawned : int;
  st_local_steals : int;
  st_overflow_in : int;
  st_overflow_out : int;
  st_batch_stolen : int;
  st_recycled : int;
  st_recycle_miss : int;
  st_leapfrog : int;
  st_pending : int;
  st_quanta : (int * float) list;
}

let adaptive pool = pool.quantum_bounds <> None

let stats pool =
  Array.to_list
    (Array.map
       (fun sp ->
         let spawned = ref (Atomic.get sp.sp_ext_spawned) in
         let local = ref 0 in
         let ovin = ref 0 in
         let batched = ref 0 in
         Array.iter
           (fun wid ->
             let w = pool.workers.(wid) in
             spawned := !spawned + w.w_spawned;
             local := !local + w.w_local_steals;
             ovin := !ovin + w.w_overflow_in;
             batched := !batched + w.w_batch_stolen)
           sp.sp_members;
         (* The sums above read plain owner-written cells while the
            owners keep bumping them; clamp negative transients the
            same way [Deque.length] does so a concurrent sampler never
            reports a negative count. *)
         let c v = Stdlib.max 0 v in
         {
           st_name = sp.sp_name;
           st_sched = sp.inst.i_name;
           st_workers = Array.length sp.sp_members;
           st_spawned = c !spawned;
           st_local_steals = c !local;
           st_overflow_in = c !ovin;
           st_overflow_out = c (Atomic.get sp.sp_stolen_away);
           st_batch_stolen = c !batched;
           st_recycled = 0;
           st_recycle_miss = 0;
           st_leapfrog = 0;
           st_pending = c (sp.inst.i_length ());
           st_quanta =
             Array.to_list
               (Array.map
                  (fun wid -> (wid, pool.workers.(wid).w_quantum))
                  sp.sp_members);
         })
       pool.subpools)

let run pool main =
  if Atomic.get pool.shutdown then invalid_arg "Fiber.run: pool is shut down";
  (match Domain.DLS.get current_worker with
  | Some _ -> invalid_arg "Fiber.run: reentrant call from inside a fiber"
  | None -> ());
  let result = ref None in
  let p = promise () in
  let w0 = pool.workers.(0) in
  let sp0 = pool.subpools.(w0.w_sp) in
  let fiber =
    make_fiber pool sp0 ~prio:0 (fun () ->
        (match main () with
        | v -> result := Some (Ok v)
        | exception e -> result := Some (Error e));
        resolve p (Resolved ());
        (* Worker 0's [until] just flipped; it may be parked, and a
           targeted signal could wake somebody else instead. *)
        notify_all pool)
  in
  (* External path: the calling thread only becomes worker 0 inside
     [worker_loop] below. *)
  sp0.inst.i_push ~slot:(-1) ~prio:0 fiber;
  notify_push pool sp0;
  worker_loop pool w0 ~until:(fun () -> is_resolved p);
  match !result with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> failwith "Fiber.run: main fiber did not complete"

let shutdown pool =
  Atomic.set pool.shutdown true;
  notify_all pool;
  List.iter Domain.join pool.doms;
  (match pool.ticker with Some t -> Thread.join t | None -> ());
  pool.doms <- []

let parallel_map f xs =
  let ps = List.map (fun x -> spawn (fun () -> f x)) xs in
  List.map await ps

let parallel_for ?chunk lo hi f =
  let n = hi - lo in
  if n > 0 then begin
    let pool, w = self () in
    let chunk =
      match chunk with
      | Some c when c > 0 -> c
      | Some _ -> invalid_arg "Fiber.parallel_for: chunk <= 0"
      | None ->
          (* Size chunks to the caller's sub-pool, not the whole pool:
             that is who will run them (overflow aside). *)
          let members = Array.length pool.subpools.(w.w_sp).sp_members in
          Stdlib.max 1 (n / (8 * members))
    in
    let rec spawn_chunks acc i =
      if i >= hi then acc
      else
        let j = Stdlib.min hi (i + chunk) in
        let p =
          spawn (fun () ->
              for x = i to j - 1 do
                f x;
                check ()
              done)
        in
        spawn_chunks (p :: acc) j
    in
    let ps = spawn_chunks [] lo in
    List.iter (fun p -> await p) ps
  end
