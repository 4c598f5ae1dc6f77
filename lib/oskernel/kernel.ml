open Desim
open Types

type klt = Types.klt

type t = {
  eng : Engine.t;
  machine : Machine.t;
  c : Machine.costs;
  cores : core_state array;
  (* The per-core floats that accounting writes on every event, indexed
     by core id.  A float array is stored flat, like [Types.klt_acct],
     and one array per field costs a single allocation per kernel
     rather than one per core. *)
  slice_deadline : float array;
  min_vruntime : float array;
  last_newidle : float array;
  busy_time : float array;
  mutable all_klts : klt list;
  signal_lock : Sync.Mutex.t;
  handlers : (int, t -> klt -> unit) Hashtbl.t;
  mutable next_kid : int;
  mutable balance_running : bool;
  mutable delivered : int;
}

let engine t = t.eng

let machine t = t.machine

let costs t = t.c

let now t = Engine.now t.eng

let klt_id k = k.kid

let state_name k =
  match k.state with
  | Created -> "created"
  | Runnable -> "runnable"
  | Running -> "running"
  | Blocked r -> "blocked:" ^ r
  | Zombie -> "zombie"

let running_core k = k.core

let cpu_time k = k.kacct.cpu_time

let live_klts t = List.filter (fun k -> k.state <> Zombie) t.all_klts

let signals_delivered t = t.delivered

let total_busy_time t = Array.fold_left ( +. ) 0.0 t.busy_time

(* Flight-recorder hook: every kernel event is reported through the
   engine's observer as an int-coded record, so the runtime's recorder
   (a layer the kernel cannot depend on) can fold it into its rings.
   The codes are the recorder's own event numbers, which bind to these;
   16-21 keep the values saved dumps carry, and 31 up follow the
   recorder's last runtime code (30).  With no observer installed each
   site costs one option check. *)

let obs_timer_fire = 16 (* a = target klt id (-1 skipped), b = fire count *)

let obs_sig_deliver = 17 (* a = klt id, b = signo *)

let obs_futex_wait = 18 (* a = klt id *)

let obs_futex_wake = 19 (* a = woken, b = requested *)

let obs_klt_dispatch = 20 (* a = klt id, b = core *)

let obs_klt_block = 21 (* a = klt id *)

let obs_klt_exit = 31 (* a = klt id, b = core it left (-1 none) *)

let obs_klt_preempt = 32 (* a = klt id, b = core it left *)

let obs_klt_migrate = 33 (* a = klt id, b = core it is dispatched on *)

let obs_newidle_pull = 34 (* a = klt id, b = idle core that pulled it *)

let obs_balance_move = 35 (* a = klt id, b = core it was moved to *)

let obs t code a b =
  match Engine.observer t.eng with
  | None -> ()
  | Some f -> f (Engine.now t.eng) code a b

(* ------------------------------------------------------------------ *)
(* Runqueue management.  Queues are small (tens of entries), so sorted
   lists keep the code obvious. *)

(* Queue ordering: SCHED_FIFO tasks come first (by descending RT
   priority, FIFO among equals), then CFS tasks by vruntime. *)
let queue_before a b =
  match (a.policy, b.policy) with
  | Sched_fifo pa, Sched_fifo pb -> pa > pb
  | Sched_fifo _, Sched_other -> true
  | Sched_other, Sched_fifo _ -> false
  | Sched_other, Sched_other -> a.kacct.vruntime < b.kacct.vruntime

let queue_insert core klt =
  let rec ins = function
    | [] -> [ klt ]
    | x :: rest as l -> if queue_before klt x then klt :: l else x :: ins rest
  in
  core.queued <- ins core.queued

let queue_remove core klt = core.queued <- List.filter (fun k -> k != klt) core.queued

let core_load core = List.length core.queued + match core.current with Some _ -> 1 | None -> 0

(* ------------------------------------------------------------------ *)
(* Accounting. *)

(* Inlined so that [elapsed], computed by the caller, reaches the flat
   [kacct] and [busy_time] stores unboxed: as a call argument it would
   be boxed first, two minor words per accounting step. *)
let[@inline] charge t klt elapsed =
  if elapsed > 0.0 then begin
    klt.kacct.cpu_time <- klt.kacct.cpu_time +. elapsed;
    klt.kacct.cpu_since_move <- klt.kacct.cpu_since_move +. elapsed;
    klt.kacct.vruntime <- klt.kacct.vruntime +. (elapsed *. 1024.0 /. nice_weight klt.nice);
    match klt.core with
    | Some c -> t.busy_time.(c) <- t.busy_time.(c) +. elapsed
    | None -> ()
  end

(* Charge a Running KLT for time elapsed since its last accounting
   point.  Safe to call from event context (e.g. slice ticks), so
   [cpu_time] stays fresh even inside long compute chunks. *)
let account_running t klt =
  match klt.state with
  | Running ->
      let e = now t -. klt.kacct.exec_start in
      if e > 0.0 then begin
        charge t klt e;
        klt.kacct.exec_start <- now t
      end
  | Created | Runnable | Blocked _ | Zombie -> ()

(* Consume CPU from process context without any interruption point
   (kernel-mode section). *)
let charge_running t klt dt =
  if dt > 0.0 then begin
    klt.kacct.exec_start <- now t;
    Engine.delay t.eng dt;
    account_running t klt
  end

(* ------------------------------------------------------------------ *)
(* Dispatching. *)

let cancel_slice core =
  match core.slice_ev with
  | Some ev ->
      ignore (Engine.cancel ev);
      core.slice_ev <- None
  | None -> ()

let rec set_slice t core =
  cancel_slice core;
  let nr = 1 + List.length core.queued in
  let slice = Float.max t.c.min_granularity (t.c.sched_latency /. float_of_int nr) in
  t.slice_deadline.(core.cid) <- now t +. slice;
  core.slice_ev <- Some (Engine.after t.eng slice (fun () -> slice_expired t core))

(* A task was enqueued behind a running one: make sure the current slice
   ends within a tick-like bound (real CFS re-checks every scheduler
   tick; an armed-when-alone slice must not starve the newcomer). *)
and tighten_slice t core =
  match core.current with
  | None -> ()
  | Some _ ->
      let want = now t +. t.c.min_granularity in
      if want < t.slice_deadline.(core.cid) then begin
        cancel_slice core;
        t.slice_deadline.(core.cid) <- want;
        core.slice_ev <-
          Some (Engine.after t.eng t.c.min_granularity (fun () -> slice_expired t core))
      end

and slice_expired t core =
  core.slice_ev <- None;
  match core.current with
  | None -> ()
  | Some klt -> (
      account_running t klt;
      let fifo_keeps_core =
        match klt.policy with
        | Sched_fifo p ->
            (* FIFO runs until it blocks or a higher-priority task
               arrives; it never round-robins with CFS tasks. *)
            not
              (List.exists
                 (fun k -> match k.policy with Sched_fifo p' -> p' > p | Sched_other -> false)
                 core.queued)
        | Sched_other -> false
      in
      if
        (core.queued = [] || fifo_keeps_core) && Cpuset.mem klt.affinity core.cid
      then set_slice t core
      else
        match klt.on_interrupt with
        | Some intr -> intr Slice_end
        | None ->
            (* Non-preemptible (kernel) section; retry shortly. *)
            set_slice t core)

and dispatch t core =
  match core.current with
  | Some _ -> ()
  | None -> (
      match core.queued with
      | [] ->
          cancel_slice core;
          newidle_balance t core
      | klt :: rest ->
          core.queued <- rest;
          core.current <- Some klt;
          klt.state <- Running;
          klt.core <- Some core.cid;
          t.min_vruntime.(core.cid) <- Float.max t.min_vruntime.(core.cid) klt.kacct.vruntime;
          if klt.last_core <> core.cid then begin
            (* Cache-refill cost scales with how hot the thread was on
               its previous core (fully hot after ~1 ms of CPU). *)
            let hotness = Float.min 1.0 (klt.kacct.cpu_since_move /. 1e-3) in
            klt.kacct.pending_overhead <-
              klt.kacct.pending_overhead
              +. (t.c.migration_cache_penalty *. hotness *. klt.kacct.kfootprint);
            klt.kacct.cpu_since_move <- 0.0;
            obs t obs_klt_migrate klt.kid core.cid
          end;
          klt.last_core <- core.cid;
          if core.last_klt <> klt.kid then
            klt.kacct.pending_overhead <- klt.kacct.pending_overhead +. t.c.klt_ctx_switch;
          core.last_klt <- klt.kid;
          set_slice t core;
          obs t obs_klt_dispatch klt.kid core.cid;
          (match klt.on_dispatch with
          | Some resume ->
              klt.on_dispatch <- None;
              resume ()
          | None -> ( (* the process will observe Running synchronously *) )))

and newidle_balance t core =
  let tnow = now t in
  if tnow -. t.last_newidle.(core.cid) >= t.c.newidle_min_interval then begin
    t.last_newidle.(core.cid) <- tnow;
    (* Pull a queued (not running) KLT from the busiest eligible core. *)
    let best = ref None in
    Array.iter
      (fun other ->
        if other.cid <> core.cid then
          match List.find_opt (fun k -> Cpuset.mem k.affinity core.cid) other.queued with
          | None -> ()
          | Some k -> (
              let load = core_load other in
              match !best with
              | Some (bl, _, _) when bl >= load -> ()
              | _ -> best := Some (load, other, k)))
      t.cores;
    match !best with
    | Some (load, other, k) when load >= 2 ->
        queue_remove other k;
        queue_insert core k;
        obs t obs_newidle_pull k.kid core.cid;
        dispatch t core
    | _ -> ()
  end

(* Wake-time core selection: prefer the previous core when it is idle or
   no more loaded than the best alternative (cache affinity, like CFS
   wake_affine), otherwise the first idle allowed core, otherwise the
   first least-loaded one. *)
let select_core t klt =
  let cores = t.cores in
  let last = klt.last_core in
  let last_ok = Cpuset.mem klt.affinity last in
  if last_ok && core_load cores.(last) = 0 then cores.(last)
  else begin
    (* First allowed core of least load; stops at the first idle one. *)
    let best = ref (-1) and best_load = ref max_int and i = ref 0 in
    while !best_load > 0 && !i < Array.length cores do
      if Cpuset.mem klt.affinity !i then begin
        let l = core_load cores.(!i) in
        if l < !best_load then begin
          best := !i;
          best_load := l
        end
      end;
      incr i
    done;
    if !best < 0 then invalid_arg (Printf.sprintf "Kernel: %s has empty affinity" klt.kname);
    if !best_load > 0 && last_ok && core_load cores.(last) <= !best_load then cores.(last)
    else cores.(!best)
  end

(* Enqueue a newly-runnable KLT on [core], with CFS sleeper-fairness
   vruntime normalization. *)
let enqueue t core klt =
  klt.state <- Runnable;
  klt.core <- None;
  klt.kacct.vruntime <-
    Float.max klt.kacct.vruntime (t.min_vruntime.(core.cid) -. t.c.sched_latency);
  queue_insert core klt

let wake_preempt_check t core woken =
  match core.current with
  | None -> ()
  | Some cur ->
      let should_preempt =
        match (woken.policy, cur.policy) with
        | Sched_fifo pw, Sched_fifo pc -> pw > pc
        | Sched_fifo _, Sched_other -> true
        | Sched_other, Sched_fifo _ -> false
        | Sched_other, Sched_other ->
            woken.kacct.vruntime +. t.c.wakeup_granularity < cur.kacct.vruntime
      in
      if should_preempt then
        match cur.on_interrupt with
        | Some intr -> intr Wake_preempt
        | None ->
            (* Non-preemptible kernel section: re-check via the slice
               path as soon as it ends instead of dropping the preempt. *)
            cancel_slice core;
            core.slice_ev <-
              Some (Engine.after t.eng 2e-6 (fun () -> slice_expired t core))

(* Transition to Runnable and suspend the current process until the
   scheduler dispatches this KLT.  Process context. *)
let wait_dispatch _t klt =
  if klt.state <> Running then
    Engine.block (fun resume -> klt.on_dispatch <- Some resume)

let become_runnable t klt =
  klt.wakeups <- klt.wakeups + 1;
  let core = select_core t klt in
  enqueue t core klt;
  if core.current = None then dispatch t core
  else begin
    wake_preempt_check t core klt;
    tighten_slice t core
  end

(* Release the core this KLT is running on (process context). *)
let release_core t klt ~reason =
  match klt.core with
  | None -> ()
  | Some cid ->
      let core = t.cores.(cid) in
      core.current <- None;
      core.last_klt <- klt.kid;
      cancel_slice core;
      klt.core <- None;
      klt.state <- (match reason with `Blocked r -> Blocked r | `Runnable -> Runnable);
      dispatch t core

(* Deschedule after a slice/wake preemption: back on this core's queue. *)
let preempt_self t klt =
  match klt.core with
  | None -> ()
  | Some cid ->
      let core = t.cores.(cid) in
      core.current <- None;
      core.last_klt <- klt.kid;
      obs t obs_klt_preempt klt.kid cid;
      if Cpuset.mem klt.affinity core.cid then begin
        enqueue t core klt;
        dispatch t core
      end
      else begin
        (* Repinned away while running: migrate at this scheduling point. *)
        let dest = select_core t klt in
        enqueue t dest klt;
        dispatch t core;
        if dest.current = None then dispatch t dest
      end

(* ------------------------------------------------------------------ *)
(* Signals. *)

let signal_blocked klt signo = List.mem signo klt.sigmask

let deliverable klt =
  let rec pick acc = function
    | [] -> None
    | s :: rest ->
        if signal_blocked klt s then pick (s :: acc) rest
        else Some (s, List.rev_append acc rest)
  in
  pick [] klt.pending_signals

let sigaction t signo handler = Hashtbl.replace t.handlers signo handler

let sigblock _t klt signo = klt.sigmask <- signo :: klt.sigmask

let sigunblock _t klt signo =
  let rec remove_one = function
    | [] -> []
    | s :: rest -> if s = signo then rest else s :: remove_one rest
  in
  klt.sigmask <- remove_one klt.sigmask

(* Run handlers for every deliverable pending signal.  Process context,
   Running.  Models the serialized in-kernel delivery path: the global
   signal lock is held for [signal_lock_hold]; waiting for it consumes
   CPU (the KLT spins in kernel mode), which is the Fig. 4 contention
   mechanism. *)
let rec process_signals t klt =
  match deliverable klt with
  | None -> ()
  | Some (signo, rest) ->
      klt.pending_signals <- rest;
      (* Waiting for the lock spins in kernel mode: it burns core time. *)
      klt.kacct.exec_start <- now t;
      Sync.Mutex.lock t.signal_lock;
      account_running t klt;
      Engine.delay t.eng t.c.signal_lock_hold;
      account_running t klt;
      Sync.Mutex.unlock t.signal_lock;
      charge_running t klt t.c.signal_handler_entry;
      t.delivered <- t.delivered + 1;
      obs t obs_sig_deliver klt.kid signo;
      sigblock t klt signo;
      (match Hashtbl.find_opt t.handlers signo with
      | Some h -> h t klt
      | None -> ());
      sigunblock t klt signo;
      process_signals t klt

let kill _t klt signo =
  if klt.state <> Zombie then begin
    klt.pending_signals <- klt.pending_signals @ [ signo ];
    if not (signal_blocked klt signo) then
      match klt.state with
      | Running -> (
          match klt.on_interrupt with Some intr -> intr Signal_pending | None -> ())
      | Blocked _ -> (
          match klt.on_blocked_signal with Some f -> f () | None -> ())
      | Runnable | Created | Zombie -> ()
  end

(* ------------------------------------------------------------------ *)
(* The interruptible compute loop — the heart of the kernel model. *)

type chunk_result =
  | Chunk_done
  | Chunk_interrupted of interrupt_reason
  | Chunk_stepped  (* an idle poll's step ran in event context (see [spin]) *)

type spin_step = Spin_decline | Spin_again | Spin_stop

let eps = 1e-12

(* One chunk of [left] seconds of CPU, ended early by a signal, a slice
   end or a wake-up preemption.  Returns the compute's remainder when
   the chunk ended, and how it ended. *)
let run_chunk t klt left =
  let chunk_start = now t in
  klt.kacct.exec_start <- chunk_start;
  let result =
    Engine.block (fun resume ->
        let ev = Engine.after t.eng left (fun () -> resume Chunk_done) in
        klt.on_interrupt <-
          Some
            (fun reason ->
              if Engine.cancel ev then resume (Chunk_interrupted reason)))
  in
  klt.on_interrupt <- None;
  (* [account_running] may have charged part of this chunk already (at
     slice ticks); charge the rest and report total chunk progress. *)
  account_running t klt;
  (left -. (now t -. chunk_start), result)

(* May an idle chunk's completion event, at [now], do the process's work
   itself?  The event would resume the process through a second event at
   [now].  When no schedule controller reorders ties and no other event
   is due at [now], that resume is the very next event dispatched, so
   whatever the process would run there can run here instead: same
   clock, same order of every other event (each later insertion sequence
   number shifts by one, uniformly), same RNG draws, same float sums.
   The other conditions make the rest of [compute_loop]'s iteration a
   no-op, as it would be in the process: still [Running] (no
   [wait_dispatch]), no deferred overhead to charge (no delay), no
   deliverable signal to handle. *)
let can_step t klt =
  (match Engine.controller t.eng with None -> true | Some _ -> false)
  && (not (Engine.due_now t.eng))
  && (match klt.state with Running -> true | Created | Runnable | Blocked _ | Zombie -> false)
  && klt.kacct.pending_overhead = 0.0
  && match deliverable klt with None -> true | Some _ -> false

(* The chunk in flight of [run_spin_chunk]: when it started and how much
   CPU it was armed for.  All-float, so it is stored flat and the
   per-poll updates allocate nothing (float refs would box each one). *)
type spin_chunk = { mutable start : float; mutable left : float }

(* An idle poll's chunk.  When it completes and [can_step] holds, its
   event runs the caller's [step] in place of the process; on
   [Spin_again] it starts the next [poll]-second chunk itself, so one
   idle poll costs one event and no process switch.  [ch] always
   describes the chunk in flight. *)
let run_spin_chunk t klt ~poll ~step left0 =
  let ch = { start = now t; left = left0 } in
  klt.kacct.exec_start <- ch.start;
  let result =
    Engine.block (fun resume ->
        let ev = ref None in
        let on_interrupt =
          Some
            (fun reason ->
              match !ev with
              | Some e when Engine.cancel e -> resume (Chunk_interrupted reason)
              | Some _ | None -> ())
        in
        let rec complete () =
          if ch.left -. (now t -. ch.start) <= eps && can_step t klt then begin
            klt.on_interrupt <- None;
            account_running t klt;
            match step () with
            | Spin_again ->
                ch.start <- now t;
                ch.left <- poll;
                klt.kacct.exec_start <- ch.start;
                ev := Some (Engine.after t.eng poll complete);
                klt.on_interrupt <- on_interrupt
            | Spin_stop -> resume Chunk_stepped
            | Spin_decline -> resume Chunk_done
          end
          else resume Chunk_done
        in
        ev := Some (Engine.after t.eng left0 complete);
        klt.on_interrupt <- on_interrupt)
  in
  klt.on_interrupt <- None;
  account_running t klt;
  (ch.left -. (now t -. ch.start), result)

let compute_loop t klt amount ~should_stop ~chunk =
  if amount < 0.0 then invalid_arg "Kernel.compute: negative amount";
  let remaining = ref amount in
  let finished = ref false in
  let result = ref 0.0 in
  while not !finished do
    wait_dispatch t klt;
    (* Deferred dispatch/migration/timer costs are consumed here, before
       any signal handler runs — so e.g. a timer expiry's kernel work
       sits inside the measured preemption-latency window, as on real
       systems. *)
    let overhead = klt.kacct.pending_overhead in
    klt.kacct.pending_overhead <- 0.0;
    charge_running t klt overhead;
    process_signals t klt;
    if should_stop () then begin
      finished := true;
      result := Float.max 0.0 !remaining
    end
    else if !remaining <= eps then begin
      finished := true;
      result := 0.0
    end
    else begin
      let left, r = chunk !remaining in
      remaining := left;
      match r with
      | Chunk_done -> ()
      | Chunk_interrupted Signal_pending -> ()
      | Chunk_interrupted (Slice_end | Wake_preempt) -> preempt_self t klt
      | Chunk_stepped -> finished := true
    end
  done;
  !result

let compute_stoppable t klt amount ~should_stop =
  compute_loop t klt amount ~should_stop ~chunk:(run_chunk t klt)

let never () = false

let compute t klt amount =
  let leftover = compute_stoppable t klt amount ~should_stop:never in
  assert (leftover = 0.0)

let spin t klt dt ~step =
  ignore (compute_loop t klt dt ~should_stop:never ~chunk:(run_spin_chunk t klt ~poll:dt ~step))

let busy_wait t klt ?(poll = 20e-6) cond =
  while not (cond ()) do
    compute t klt poll
  done

let consume = charge_running

let add_overhead _t klt d =
  if d < 0.0 then invalid_arg "Kernel.add_overhead: negative";
  klt.kacct.pending_overhead <- klt.kacct.pending_overhead +. d

(* ------------------------------------------------------------------ *)
(* Blocking. *)

(* Suspend the calling KLT, releasing its core.  [setup deliver] runs
   synchronously and must arrange for [deliver] to be called exactly
   once later.  If [interruptible], an unmasked signal also wakes the
   KLT (returning [`Eintr]); its handler runs before we return. *)
let suspend (type a) t klt ~reason ~interruptible (setup : (a -> unit) -> unit) :
    [ `Value of a | `Eintr ] =
  if interruptible && deliverable klt <> None then begin
    (* A deliverable signal is already pending: like sigsuspend, run its
       handler and return immediately instead of sleeping forever. *)
    process_signals t klt;
    `Eintr
  end
  else begin
    obs t obs_klt_block klt.kid 0;
    release_core t klt ~reason:(`Blocked reason);
  let r =
    Engine.block (fun resume ->
        let fired = ref false in
        let once v =
          if not !fired then begin
            fired := true;
            klt.on_blocked_signal <- None;
            resume v
          end
        in
        if interruptible then klt.on_blocked_signal <- Some (fun () -> once `Eintr);
        setup (fun v -> once (`Value v)))
  in
    become_runnable t klt;
    wait_dispatch t klt;
    process_signals t klt;
    r
  end

let sleep t klt dt =
  if dt < 0.0 then invalid_arg "Kernel.sleep: negative";
  if dt > 0.0 then
    match
      suspend t klt ~reason:"sleep" ~interruptible:false (fun deliver ->
          Engine.post_after t.eng dt (fun () -> deliver ()))
    with
    | `Value () -> ()
    | `Eintr -> assert false

(* Blocking-syscall model (paper §3.5.1): interruptible wait; SA_RESTART
   resumes with the remaining time after the handler, paying a kernel
   re-entry cost per restart. *)
let blocking_syscall t klt ~duration ~sa_restart =
  if duration < 0.0 then invalid_arg "Kernel.blocking_syscall: negative";
  let restarts = ref 0 in
  let rec attempt remaining =
    if remaining <= 0.0 then `Done !restarts
    else begin
      let started = now t in
      let r =
        suspend t klt ~reason:"syscall" ~interruptible:true (fun deliver ->
            Engine.post_after t.eng remaining (fun () -> deliver ()))
      in
      match r with
      | `Value () -> `Done !restarts
      | `Eintr ->
          (* The signal handler has already run (inside [suspend]'s wake
             path).  Pay the syscall re-entry cost and decide. *)
          incr restarts;
          let left = Float.max 0.0 (remaining -. (now t -. started)) in
          charge_running t klt (t.c.signal_handler_entry /. 2.0);
          if sa_restart then attempt left else `Eintr (left, !restarts)
    end
  in
  attempt duration

let pause t klt =
  match suspend t klt ~reason:"pause" ~interruptible:true (fun (_ : unit -> unit) -> ()) with
  | `Eintr -> ()
  | `Value () -> assert false (* nothing ever delivers a value to pause *)

let yield t klt =
  match klt.core with
  | None -> ()
  | Some cid ->
      let core = t.cores.(cid) in
      if core.queued <> [] then begin
        (* CFS yield: behind everything currently queued here. *)
        let maxv =
          List.fold_left
            (fun acc k -> Float.max acc k.kacct.vruntime)
            klt.kacct.vruntime core.queued
        in
        klt.kacct.vruntime <- maxv +. 1e-9;
        preempt_self t klt;
        wait_dispatch t klt;
        process_signals t klt
      end

let join t ~joiner target =
  if target.state <> Zombie then
    match
      suspend t joiner ~reason:"join" ~interruptible:false (fun deliver ->
          target.exit_waiters <- (fun () -> deliver ()) :: target.exit_waiters)
    with
    | `Value () -> ()
    | `Eintr -> assert false

let pthread_kill t ~sender target signo =
  charge_running t sender t.c.pthread_kill;
  kill t target signo

(* The balance timer is armed lazily (first spawn) and disarms itself
   once every KLT has exited, so [Engine.run] can terminate. *)
let rec balance_tick t =
  if not (List.exists (fun k -> k.state <> Zombie) t.all_klts) then
    t.balance_running <- false
  else
    Engine.post_after t.eng t.c.balance_interval (fun () ->
         let busiest = ref t.cores.(0) and idlest = ref t.cores.(0) in
         Array.iter
           (fun c ->
             if core_load c > core_load !busiest then busiest := c;
             if core_load c < core_load !idlest then idlest := c)
           t.cores;
         (* Move queued tasks from the busiest to the idlest core until
            the imbalance halves (Linux moves up to the imbalance). *)
         let moves =
           ref ((core_load !busiest - core_load !idlest) / 2)
         in
         while
           !moves > 0
           && core_load !busiest >= core_load !idlest + 2
           &&
           match
             List.find_opt
               (fun k -> Cpuset.mem k.affinity !idlest.cid)
               (List.rev !busiest.queued)
           with
           | Some k ->
               queue_remove !busiest k;
               queue_insert !idlest k;
               obs t obs_balance_move k.kid !idlest.cid;
               if !idlest.current = None then dispatch t !idlest;
               true
           | None -> false
         do
           decr moves
         done;
         balance_tick t)

(* ------------------------------------------------------------------ *)
(* KLT lifecycle. *)

let exit_klt t klt =
  obs t obs_klt_exit klt.kid (match klt.core with Some c -> c | None -> -1);
  release_core t klt ~reason:(`Blocked "exiting");
  klt.state <- Zombie;
  let waiters = klt.exit_waiters in
  klt.exit_waiters <- [];
  List.iter (fun f -> f ()) waiters

let spawn t ?(nice = 0) ?affinity ?creator ~name body =
  let affinity =
    match affinity with Some a -> a | None -> Cpuset.all (Array.length t.cores)
  in
  if Cpuset.width affinity <> Array.length t.cores then
    invalid_arg "Kernel.spawn: affinity width mismatch";
  let klt =
    {
      kid = t.next_kid;
      kname = name;
      state = Created;
      nice;
      policy = Sched_other;
      kacct =
        {
          vruntime = 0.0;
          cpu_time = 0.0;
          exec_start = 0.0;
          cpu_since_move = 0.0;
          kfootprint = 1.0;
          pending_overhead = 0.0;
        };
      affinity;
      core = None;
      last_core =
        (* Spread initial placement round-robin over the allowed cores:
           a newborn thread has no cache affinity, and biasing them all
           to the first core starves whatever runs there. *)
        (match Cpuset.to_list affinity with
        | [] -> 0
        | allowed -> List.nth allowed (t.next_kid mod List.length allowed));
      pending_signals = [];
      sigmask = [];
      on_dispatch = None;
      on_interrupt = None;
      on_blocked_signal = None;
      exit_waiters = [];
      wakeups = 0;
    }
  in
  t.next_kid <- t.next_kid + 1;
  t.all_klts <- klt :: t.all_klts;
  if not t.balance_running then begin
    t.balance_running <- true;
    balance_tick t
  end;
  (match creator with Some c -> charge_running t c t.c.klt_create | None -> ());
  Engine.spawn t.eng name (fun () ->
      become_runnable t klt;
      wait_dispatch t klt;
      process_signals t klt;
      body klt;
      exit_klt t klt);
  klt

let set_footprint _t klt f =
  if f < 0.0 || f > 1.0 then invalid_arg "Kernel.set_footprint: out of [0,1]";
  klt.kacct.kfootprint <- f

let set_policy _t klt p =
  klt.policy <- (match p with `Fifo prio -> Sched_fifo prio | `Other -> Sched_other)

let policy_name klt =
  match klt.policy with
  | Sched_other -> "SCHED_OTHER"
  | Sched_fifo p -> Printf.sprintf "SCHED_FIFO:%d" p

let set_affinity t klt mask =
  if Cpuset.width mask <> Array.length t.cores then
    invalid_arg "Kernel.set_affinity: width mismatch";
  klt.affinity <- mask;
  match klt.state with
  | Runnable ->
      (* If queued on a forbidden core, migrate now. *)
      let holding =
        Array.to_list t.cores |> List.find_opt (fun c -> List.memq klt c.queued)
      in
      (match holding with
      | Some core when not (Cpuset.mem mask core.cid) ->
          queue_remove core klt;
          let dest = select_core t klt in
          queue_insert dest klt;
          if dest.current = None then dispatch t dest
      | _ -> ())
  | Running | Created | Blocked _ | Zombie -> ()

(* ------------------------------------------------------------------ *)
(* Futex. *)

module Futex = struct
  type waiter = { mutable alive : bool; deliver : unit -> unit }

  type t = { mutable value : int; mutable fwaiters : waiter list }

  let create v = { value = v; fwaiters = [] }

  let value f = f.value

  let set f v = f.value <- v

  let wait k klt f ~expected =
    if f.value <> expected then `Again
    else begin
      match Engine.controller k.eng with
      | Some c when Choice.fault c ~tag:"futex.spurious" ->
          (* Injected spurious wakeup: return without ever sleeping, the
             word unchanged.  Every in-tree waiter re-checks its
             predicate in a loop, exactly because real futexes allow
             this. *)
          `Ok
      | _ -> (
          obs k obs_futex_wait klt.kid 0;
          match
            suspend k klt ~reason:"futex" ~interruptible:false (fun deliver ->
                f.fwaiters <- f.fwaiters @ [ { alive = true; deliver = (fun () -> deliver ()) } ])
          with
          | `Value () -> `Ok
          | `Eintr -> assert false)
    end

  let wake k ?waker f n =
    (match waker with Some w -> charge_running k w k.c.futex_wake | None -> ());
    let woken = ref 0 in
    let rec pop () =
      if !woken < n then
        match f.fwaiters with
        | [] -> ()
        | w :: rest ->
            f.fwaiters <- rest;
            if w.alive then begin
              w.alive <- false;
              incr woken;
              Engine.post_after k.eng k.c.futex_wake_latency (fun () -> w.deliver ())
            end;
            pop ()
    in
    pop ();
    if !woken > 0 then obs k obs_futex_wake !woken n;
    !woken
end

(* ------------------------------------------------------------------ *)
(* Timers. *)

module Timer = struct
  type nonrec t = {
    k : t;
    interval : float;
    signo : int;
    target : unit -> klt option;
    mutable on : bool;
    mutable ev : Engine.event option;
    mutable count : int;
  }

  let fire tm =
    tm.count <- tm.count + 1;
    match tm.target () with
    | Some klt ->
        obs tm.k obs_timer_fire klt.kid tm.count;
        klt.kacct.pending_overhead <- klt.kacct.pending_overhead +. tm.k.c.timer_fire;
        kill tm.k klt tm.signo
    | None -> obs tm.k obs_timer_fire (-1) tm.count

  let create k ?first ~interval ~signo ~target () =
    if interval <= 0.0 then invalid_arg "Kernel.Timer.create: interval <= 0";
    let tm = { k; interval; signo; target; on = true; ev = None; count = 0 } in
    let first = match first with Some f -> f | None -> interval in
    (* One tick closure for the timer's whole life; the fire-then-rearm
       order fixes where the re-arm's sequence number is drawn, so it
       must not change.  A schedule controller may shift a fire by a
       bounded offset (exploring preemption-timer phases) or coalesce it
       into the next expiry (delayed/merged signal fault injection); the
       uncontrolled path is byte-for-byte the historical one. *)
    let rec fire_rearm () =
      if tm.on then begin
        fire tm;
        tm.ev <- Some (Engine.after k.eng tm.interval tick)
      end
    and tick () =
      if tm.on then
        match Engine.controller k.eng with
        | None -> fire_rearm ()
        | Some c ->
            if Choice.fault c ~tag:"timer.coalesce" then
              tm.ev <- Some (Engine.after k.eng tm.interval tick)
            else
              let d = Choice.delay c ~tag:"timer.fire" ~max:(tm.interval *. 0.5) in
              if d > 0.0 then tm.ev <- Some (Engine.after k.eng d fire_rearm)
              else fire_rearm ()
    in
    tm.ev <- Some (Engine.after k.eng first tick);
    tm

  let cancel tm =
    tm.on <- false;
    match tm.ev with
    | Some ev ->
        ignore (Engine.cancel ev);
        tm.ev <- None
    | None -> ()

  let fires tm = tm.count
end

(* ------------------------------------------------------------------ *)
(* Periodic load balancing. *)

let create eng machine =
  let n = machine.Machine.cores in
  let cores =
    Array.init n (fun cid ->
        {
          cid;
          current = None;
          queued = [];
          slice_ev = None;
          last_klt = -1;
        })
  in
  let t =
    {
      eng;
      machine;
      c = machine.Machine.costs;
      cores;
      slice_deadline = Array.make n infinity;
      min_vruntime = Array.make n 0.0;
      last_newidle = Array.make n (-1.0);
      busy_time = Array.make n 0.0;
      all_klts = [];
      signal_lock = Sync.Mutex.create ();
      handlers = Hashtbl.create 16;
      next_kid = 0;
      balance_running = false;
      delivered = 0;
    }
  in
  t
