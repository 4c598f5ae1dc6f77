(* Worker records are owner-written: the owner runs its own quantum
   clock ([w_countdown], [w_deadline], [w_quantum]), bumps [rng_state]
   on every steal probe and keeps its counters; other domains only read
   them racily ([worker_stats]).  The record is padded past 64 bytes so
   adjacent workers in [pool.workers] do not share a cache line. *)
type worker = {
  wid : int;
  w_sp : int; (* owning sub-pool id *)
  w_slot : int; (* index within the sub-pool's scheduler *)
  (* Self-timed quanta (see [check]): the safe points left before the
     next clock read, and the wall-clock end of the current quantum. *)
  mutable w_countdown : int;
  mutable w_deadline : float;
  (* Current preemption quantum in seconds, moved only by an adaptive
     pool's expiries and read racily by [worker_stats]; a stale read is
     fine for diagnostics.  Fixed-interval pools keep it pinned at
     [preempt_interval]; pools without preemption at 0. *)
  mutable w_quantum : float;
  mutable rng_state : int;
  (* Owner-written counters, read racily by [worker_stats] (stale reads
     are fine for diagnostics); keeping them plain avoids shared-atomic
     traffic on the spawn/steal fast paths. *)
  mutable w_spawned : int;
  mutable w_local_steals : int;
  mutable w_overflow_in : int;
  mutable w_inline_joins : int;
  (* Same discipline: the extra tasks a batched raid flushed into this
     worker's own queue (beyond the one returned to run).  [w_spill] is
     the cached re-push closure handed to those raids. *)
  mutable w_batch_stolen : int;
  mutable w_spill : (unit -> unit) -> unit;
  (* Park accounting, owner-written on the park slow path only (the
     spin path never touches them): parks/wakes count condvar sleeps,
     [w_idle_s] accumulates the seconds spent inside them.  A live view
     differences [w_idle_s] between its reads to derive utilization. *)
  mutable w_parks : int;
  mutable w_wakes : int;
  mutable w_idle_s : float;
  (* Quantum expiries taken at [check]. *)
  mutable w_preempts : int;
  mutable pad0 : int;
  mutable pad1 : int;
  mutable pad2 : int;
}

(* A named sub-pool: a worker subset with its own run queues
   ([Scheduler]) and its own park group.  Parking is per-sub-pool so a
   push can wake a worker that will actually serve it: a member first,
   else (via [notify_push]'s second branch) an overflow-capable sleeper
   from another sub-pool. *)
type subpool = {
  sp_id : int;
  sp_name : string;
  sp_overflow : bool; (* members may steal cross-sub-pool when idle *)
  sp_members : int array; (* global worker ids, slot order *)
  inst : (unit -> unit) Scheduler.t;
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
  recorder : Preempt_core.Recorder.t;
  rec_t0 : float; (* wall-clock origin of recorder timestamps *)
}

(* Promise state machine: one atomic word, CAS [Pending / Claimable ->
   Resolved / Failed].  [resolve] and [await]'s fast path never touch a
   lock; waiters accumulate by CAS-consing onto the pending list and are
   woken in FIFO registration order (the cons list is reversed once on
   resolve).

   [Claimable] is [Pending] for a local spawn.  It carries the child's
   deque entry (the task a worker runs to start the child as a fiber of
   its own) and its body, so that a joiner that removes the entry from
   its own deque can run the body inline (see [await]).  Resolving drops
   both, so a finished promise holds only its outcome. *)
type 'a state =
  | Pending of (unit -> unit) list
  | Claimable of (unit -> unit) * (unit -> 'a) * (unit -> unit) list
  | Resolved of 'a
  | Failed of exn

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
let requeue pool sp ~front task =
  let slot =
    match Domain.DLS.get current_worker with
    | Some (_, w) when w.w_sp = sp.sp_id -> w.w_slot
    | _ -> -1
  in
  if front then Scheduler.push_front sp.inst ~slot task
  else Scheduler.push sp.inst ~slot task;
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
  match Scheduler.pop sp.inst ~slot:w.w_slot with
  | Some _ as r -> r
  | None -> (
      let rng () = next_rand w in
      (* [w_batch_stolen] only moves when a raid returns [Some] (spill
         is never invoked on a failed raid), so one baseline serves
         both the local and the overflow attempts. *)
      let b0 = w.w_batch_stolen in
      match
        Scheduler.steal_batch sp.inst ~slot:w.w_slot ~rng ~max:batch_local
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
                    Scheduler.steal_batch v.inst ~slot:(-1) ~rng
                      ~max:batch_overflow ~spill:w.w_spill
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

let handler pool sp =
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
                requeue pool sp ~front:true (fun () -> continue k ()))
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                register (fun () ->
                    requeue pool sp ~front:false (fun () -> continue k ())))
        | Suspend_or decide ->
            Some
              (fun (k : (a, unit) continuation) ->
                let wake () =
                  requeue pool sp ~front:false (fun () -> continue k ())
                in
                match decide wake with
                | `Continue -> continue k ()
                | `Suspended -> ()
                | exception e -> discontinue k e)
        | _ -> None);
  }

(* Run [body] as a fiber of its own, under the handler of its home
   sub-pool. *)
let as_fiber pool sp body = Effect.Deep.match_with body () (handler pool sp)

(* ------------------------------------------------------------------ *)
(* Promises. *)

let rec resolve p outcome =
  match Atomic.get p with
  | (Pending pw | Claimable (_, _, pw)) as cur ->
      if Atomic.compare_and_set p cur outcome then
        (* [pw] accumulated newest-first; wake in FIFO registration
           order (test_fsync pins this). *)
        List.iter (fun wake -> wake ()) (List.rev pw)
      else resolve p outcome
  | Resolved _ | Failed _ -> ()

(* Run a child's body on the current stack and publish its outcome. *)
let settle p body =
  match body () with
  | v -> resolve p (Resolved v)
  | exception e -> resolve p (Failed e)

let is_resolved p =
  match Atomic.get p with
  | Pending _ | Claimable _ -> false
  | Resolved _ | Failed _ -> true

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
   external path, which is counted as a submission to [sp].  The task
   builds the child's fiber (stack and handler) only when a worker runs
   it; a joiner that takes it back never does.  [p] must be
   [Claimable] before the push: once the task is visible, a thief may
   resolve [p]. *)
let spawn_in pool sp ~slot body =
  let p = Atomic.make (Pending []) in
  let task () = as_fiber pool sp (fun () -> settle p body) in
  if slot >= 0 then Atomic.set p (Claimable (task, body, []))
  else Atomic.incr sp.sp_ext_spawned;
  Scheduler.push sp.inst ~slot task;
  notify_push pool sp;
  p

let spawn ?pool:target body =
  let pool, w = self () in
  match target with
  | None ->
      (* Classic fork: a LIFO child of the calling worker, inside the
         caller's own sub-pool. *)
      w.w_spawned <- w.w_spawned + 1;
      spawn_in pool pool.subpools.(w.w_sp) ~slot:w.w_slot body
  | Some name ->
      (* Targeted spawn: a submission to the named sub-pool as a whole.
         It takes the external path even when the caller is a member,
         so it is served like any other incoming request rather than as
         the caller's LIFO child. *)
      spawn_in pool (find_sp pool name) ~slot:(-1) body

let submit p ?pool:target body =
  let sp = match target with Some name -> find_sp p name | None -> p.subpools.(0) in
  spawn_in p sp ~slot:(-1) body

(* Work-first join: remove [entry] from the owner end of the current
   worker's own deque.  Success is the one claim on the entry (a thief's
   steal of it fails), so the caller may run the child inline.  On
   failure the scheduler may have popped and re-pushed another task;
   the epoch bump keeps a sibling in its park protocol from sleeping
   through that window. *)
let take_own entry =
  let pool, w = self () in
  let sp = pool.subpools.(w.w_sp) in
  if Scheduler.take sp.inst ~slot:w.w_slot entry then begin
    w.w_inline_joins <- w.w_inline_joins + 1;
    true
  end
  else begin
    notify_push pool sp;
    false
  end

(* Return the outcome, suspending until the promise resolves.  Waiters
   register with a CAS on the state word and never spin. *)
let rec wait p =
  match Atomic.get p with
  | Resolved v -> v
  | Failed e -> raise e
  | Pending _ | Claimable _ ->
      Effect.perform
        (Suspend
           (fun wake ->
             let rec register () =
               let cur = Atomic.get p in
               let next =
                 match cur with
                 | Pending ws -> Some (Pending (wake :: ws))
                 | Claimable (e, b, ws) -> Some (Claimable (e, b, wake :: ws))
                 | Resolved _ | Failed _ -> None
               in
               match next with
               | Some next -> if not (Atomic.compare_and_set p cur next) then register ()
               | None -> wake ()
             in
             register ()));
      wait p

let await p =
  (match Atomic.get p with
  | Claimable (entry, body, _) when take_own entry ->
      (* The child never started: run it here, inside the joiner's
         fiber.  Its effects reach the joiner's handler, so a yield or
         a block in the child suspends both together. *)
      settle p body
  | _ -> ());
  wait p

let yield () = Effect.perform Yield

let suspend_or decide = Effect.perform (Suspend_or decide)

(* ------------------------------------------------------------------ *)
(* Self-timed quanta.  There is no timer: each worker keeps its own
   deadline and looks at the clock from its own safe points.  [check]
   counts down [stride] safe points between clock reads, so a
   preemption comes at most [stride] safe points after the deadline.  A
   clock read (about 42 ns) costs about one greedy step (30–40 ns), so
   the stride spreads it to under 1 ns per safe point.  A pool without
   [preempt_interval] never reads the clock here. *)
let stride = 64

(* [w]'s quantum ended at [now]: pick the next one ([base], or the
   [Quantum] controller's choice from the sub-pool's run-queue depth on
   an adaptive pool, recorded into [w]'s own ring when it moves), count
   the preemption, and yield. *)
let expire pool w ~base now =
  let q =
    match pool.quantum_bounds with
    | None -> base
    | Some (q_min, q_max) ->
        let sp = pool.subpools.(w.w_sp) in
        let q =
          Quantum.next
            {
              Quantum.q_current = w.w_quantum;
              q_base = base;
              q_min;
              q_max;
              q_depth = Scheduler.length sp.inst;
              q_members = Array.length sp.sp_members;
            }
        in
        if q <> w.w_quantum then begin
          let r = pool.recorder in
          if Preempt_core.Recorder.enabled r then
            Preempt_core.Recorder.emit r w.wid (now -. pool.rec_t0)
              Preempt_core.Recorder.ev_quantum_change w.wid
              (int_of_float (q *. 1e9));
          w.w_quantum <- q
        end;
        q
  in
  w.w_deadline <- now +. q;
  w.w_preempts <- w.w_preempts + 1;
  yield ()

let check () =
  let pool, w = self () in
  let n = w.w_countdown - 1 in
  if n > 0 then w.w_countdown <- n
  else begin
    w.w_countdown <- stride;
    match pool.preempt_interval with
    | None -> ()
    | Some base ->
        let now = Unix.gettimeofday () in
        if now >= w.w_deadline then expire pool w ~base now
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
          inst = Scheduler.create ~slots:(Array.length members);
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
  let t0 = Unix.gettimeofday () in
  let workers =
    Array.init n (fun wid ->
        {
          wid;
          w_sp = sp_of.(wid);
          w_slot = slot_of.(wid);
          w_countdown = stride;
          w_deadline = t0 +. interval0;
          w_quantum = interval0;
          rng_state = (wid * 7919) + 13;
          w_spawned = 0;
          w_local_steals = 0;
          w_overflow_in = 0;
          w_inline_joins = 0;
          w_batch_stolen = 0;
          w_spill = ignore;
          w_parks = 0;
          w_wakes = 0;
          w_idle_s = 0.0;
          w_preempts = 0;
          pad0 = 0;
          pad1 = 0;
          pad2 = 0;
        })
  in
  (* The spill closure a batched raid flushes extra tasks through:
     fixed per worker (it needs both the worker record and its
     sub-pool's queues, so it is tied after both exist), pushing on
     the worker's own slot and counting the haul. *)
  Array.iter
    (fun w ->
      let sp = subpools.(w.w_sp) in
      w.w_spill <-
        (fun task ->
          w.w_batch_stolen <- w.w_batch_stolen + 1;
          Scheduler.push sp.inst ~slot:w.w_slot task))
    workers;
  let recorder =
    Preempt_core.Recorder.create ~n_workers:n
      ~capacity:cfg.Config.recorder_capacity
  in
  Preempt_core.Recorder.set_enabled recorder cfg.Config.recorder_enabled;
  let pool =
    {
      workers;
      subpools;
      doms = [];
      total_sleepers = Atomic.make 0;
      shutdown = Atomic.make false;
      preempt_interval = cfg.Config.preempt_interval;
      quantum_bounds;
      recorder;
      rec_t0 = t0;
    }
  in
  (* Worker 0 is the caller inside [run]; spawn domains for the rest. *)
  pool.doms <-
    List.init (n - 1) (fun i ->
        Domain.spawn (fun () -> domain_main pool workers.(i + 1)));
  pool

let domains pool = Array.length pool.workers

let recorder pool = pool.recorder

(* True iff the current worker's quantum has ended: one clock read.
   Lets a workload bracket the [check ()] it is about to take with span
   events; arming the countdown makes that very [check] take the
   expiry. *)
let preempt_pending () =
  match Domain.DLS.get current_worker with
  | Some ({ preempt_interval = Some _; _ }, w)
    when Unix.gettimeofday () >= w.w_deadline ->
      w.w_countdown <- 1;
      true
  | _ -> false

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

(* Wall-clock origin of recorder timestamps, for callers that emit
   events with [~at] or align external clocks. *)
let clock_origin pool = pool.rec_t0

type subpool_stats = {
  st_name : string;
  st_workers : int;
  st_spawned : int;
  st_local_steals : int;
  st_overflow_in : int;
  st_overflow_out : int;
  st_inline_joins : int;
  st_batch_stolen : int;
  st_recycled : int;
  st_recycle_miss : int;
  st_leapfrog : int;
  st_pending : int;
  st_quanta : (int * float) list;
}

type worker_stats = {
  ws_worker : int;
  ws_subpool : string;
  ws_spawned : int;
  ws_local_steals : int;
  ws_overflow_in : int;
  ws_inline_joins : int;
  ws_batch_stolen : int;
  ws_parks : int;
  ws_wakes : int;
  ws_idle_s : float;
  ws_quantum : float;
  ws_preempts : int;
}

(* One racy read of every worker's owner-written fields: the one
   counter set [stats], [preemptions] and the live view fold.  The
   owners keep bumping these cells while we read them, so the fields of
   one read may come from different instants; each count only grows, so
   none reads negative. *)
let read_workers pool =
  Array.map
    (fun w ->
      {
        ws_worker = w.wid;
        ws_subpool = pool.subpools.(w.w_sp).sp_name;
        ws_spawned = w.w_spawned;
        ws_local_steals = w.w_local_steals;
        ws_overflow_in = w.w_overflow_in;
        ws_inline_joins = w.w_inline_joins;
        ws_batch_stolen = w.w_batch_stolen;
        ws_parks = w.w_parks;
        ws_wakes = w.w_wakes;
        ws_idle_s = Float.max 0.0 w.w_idle_s;
        ws_quantum = w.w_quantum;
        ws_preempts = w.w_preempts;
      })
    pool.workers

let worker_stats pool = Array.to_list (read_workers pool)

let preemptions pool =
  Array.fold_left (fun acc ws -> acc + ws.ws_preempts) 0 (read_workers pool)

let stats pool =
  let ws = read_workers pool in
  Array.to_list
    (Array.map
       (fun sp ->
         let sum f =
           Array.fold_left (fun acc wid -> acc + f ws.(wid)) 0 sp.sp_members
         in
         {
           st_name = sp.sp_name;
           st_workers = Array.length sp.sp_members;
           st_spawned = Atomic.get sp.sp_ext_spawned + sum (fun w -> w.ws_spawned);
           st_local_steals = sum (fun w -> w.ws_local_steals);
           st_overflow_in = sum (fun w -> w.ws_overflow_in);
           st_overflow_out = Atomic.get sp.sp_stolen_away;
           st_inline_joins = sum (fun w -> w.ws_inline_joins);
           st_batch_stolen = sum (fun w -> w.ws_batch_stolen);
           st_recycled = 0;
           st_recycle_miss = 0;
           st_leapfrog = 0;
           st_pending = Scheduler.length sp.inst;
           st_quanta =
             Array.to_list
               (Array.map (fun wid -> (wid, ws.(wid).ws_quantum)) sp.sp_members);
         })
       pool.subpools)

let run pool main =
  if Atomic.get pool.shutdown then invalid_arg "Fiber.run: pool is shut down";
  (match Domain.DLS.get current_worker with
  | Some _ -> invalid_arg "Fiber.run: reentrant call from inside a fiber"
  | None -> ());
  let result = ref None in
  let finished = Atomic.make false in
  let w0 = pool.workers.(0) in
  let sp0 = pool.subpools.(w0.w_sp) in
  let fiber () =
    as_fiber pool sp0 (fun () ->
        (match main () with
        | v -> result := Some (Ok v)
        | exception e -> result := Some (Error e));
        Atomic.set finished true;
        (* Worker 0's [until] just flipped; it may be parked, and a
           targeted signal could wake somebody else instead. *)
        notify_all pool)
  in
  (* External path: the calling thread only becomes worker 0 inside
     [worker_loop] below. *)
  Scheduler.push sp0.inst ~slot:(-1) fiber;
  notify_push pool sp0;
  worker_loop pool w0 ~until:(fun () -> Atomic.get finished);
  match !result with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> failwith "Fiber.run: main fiber did not complete"

let shutdown pool =
  Atomic.set pool.shutdown true;
  notify_all pool;
  List.iter Domain.join pool.doms;
  pool.doms <- []

(* Join newest-first, like [parallel_for]: the youngest unstolen child
   is then on top of the deque at every join and runs inline.
   [List.rev_map] spawns in input order and returns the promises
   newest-first; consing the results back reverses them into input
   order. *)
let parallel_map f xs =
  let ps = List.rev_map (fun x -> spawn (fun () -> f x)) xs in
  List.fold_left (fun acc p -> await p :: acc) [] ps

let parallel_for lo hi f =
  let n = hi - lo in
  if n > 0 then begin
    let pool, w = self () in
    (* Size chunks to the caller's sub-pool, not the whole pool: that is
       who will run them (overflow aside). *)
    let members = Array.length pool.subpools.(w.w_sp).sp_members in
    let chunk = Stdlib.max 1 (n / (8 * members)) in
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
