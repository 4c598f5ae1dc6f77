(** Ready-made programs for the checker — buggy and correct concurrency
    patterns over the preemptive runtime.  Used by the [repro check] CLI
    subcommand and the [@check-smoke] alias: each scenario carries the
    verdict the checker is expected to reach within its budget, so the
    registry doubles as an end-to-end regression suite for the checker
    itself (buggy programs must be caught, correct ones must pass). *)

open Desim
open Oskern
open Preempt_core

type expect = Pass | Fail

type t = {
  sname : string;
  sdesc : string;
  expect : expect;
  sfaults : bool;  (** run with fault injection enabled *)
  sbudget : int;  (** schedules that suffice for the expected verdict *)
  sstrategy : Runner.strategy option;
      (** strategy the scenario is built for; [None] = caller's choice *)
  sexhaust : bool;  (** the budget must fully exhaust the space (DPOR) *)
  stags : string list;  (** registry groups, e.g. ["lock"] *)
  prog : Runner.env -> Runner.program;
}

(* Two cores, two workers, aligned preemption timers, metrics on — the
   standard harness all scenarios run under.  Everything is rebuilt per
   schedule from the controller-carrying engine in [env]. *)
let preemptive_rt (env : Runner.env) =
  let machine = Machine.with_cores Machine.skylake 2 in
  let kernel = Kernel.create env.Runner.eng machine in
  let config =
    Config.make ~timer_strategy:Config.Per_worker_aligned ~interval:0.3e-3
      ~metrics_enabled:true ~recorder_enabled:true ()
  in
  Runtime.create ~config kernel ~n_workers:2

(* Classic lock-order inversion: AB vs BA.  Both threads hold their
   first mutex across a compute, so nearly every schedule interleaves
   the acquisitions and the deadlock watchdog fires. *)
let deadlock_prog env =
  let rt = preemptive_rt env in
  let m1 = Usync.Mutex.create rt in
  let m2 = Usync.Mutex.create rt in
  let grab a b () =
    Usync.Mutex.lock a;
    Ult.compute 2e-4;
    Usync.Mutex.lock b;
    Ult.compute 1e-4;
    Usync.Mutex.unlock b;
    Usync.Mutex.unlock a
  in
  let ua =
    Runtime.spawn rt ~kind:Types.Klt_switching ~home:0 ~name:"lock-ab"
      (grab m1 m2)
  in
  let ub =
    Runtime.spawn rt ~kind:Types.Klt_switching ~home:1 ~name:"lock-ba"
      (grab m2 m1)
  in
  Runtime.start rt;
  Runner.program ~runtime:rt ~ults:[ ua; ub ]
    ~oracle:(fun () -> Runner.all_finished rt)
    ()

(* Check-then-sleep without atomicity: the waiter decides to sleep and
   only then parks itself, leaving a window in which the signaler's
   wake finds nobody.  In the default schedule the signaler arrives
   after the waiter has parked; injected worker stalls shift the window
   until the wake is lost and the waiter blocks forever. *)
let lost_wakeup_prog env =
  let rt = preemptive_rt env in
  let flag = ref false in
  let cell = ref None in
  let waiter =
    Runtime.spawn rt ~kind:Types.Klt_switching ~home:0 ~name:"waiter"
      (fun () ->
        if not !flag then begin
          Ult.yield ();
          if not !flag then begin
            Ult.compute 5e-5 (* decided to sleep; not yet parked *);
            Ult.suspend (fun self -> cell := Some self)
          end
        end)
  in
  let signaler =
    Runtime.spawn rt ~kind:Types.Klt_switching ~home:1 ~name:"signaler"
      (fun () ->
        Ult.compute 6e-5;
        flag := true;
        match !cell with
        | Some u ->
            cell := None;
            Runtime.ready rt u
        | None -> ())
  in
  Runtime.start rt;
  Runner.program ~runtime:rt ~ults:[ waiter; signaler ]
    ~oracle:(fun () -> Runner.all_finished rt)
    ()

(* Broken test-and-set: the load-to-store window lets two threads see
   [busy = false] and both enter the critical section. *)
let racy_flag_prog env =
  let rt = preemptive_rt env in
  let excl = Runner.Excl.create "busy-flag section" in
  let busy = ref false in
  let body () =
    let rec acquire () =
      if !busy then begin
        Ult.yield ();
        acquire ()
      end
      else begin
        Ult.compute 1e-5 (* load-to-store window *);
        busy := true
      end
    in
    acquire ();
    Runner.Excl.critical excl (fun () -> Ult.compute 5e-5);
    busy := false
  in
  let us =
    List.init 2 (fun i ->
        Runtime.spawn rt ~kind:Types.Signal_yield ~home:i
          ~name:(Printf.sprintf "racer%d" i) body)
  in
  Runtime.start rt;
  Runner.program ~runtime:rt ~ults:us
    ~oracle:(fun () -> Runner.all_finished rt)
    ()

(* The correct version of the racy scenario: a real mutex guards the
   critical section, so no schedule may trip the monitor. *)
let mutex_ok_prog env =
  let rt = preemptive_rt env in
  let m = Usync.Mutex.create rt in
  let excl = Runner.Excl.create "mutex section" in
  let count = ref 0 in
  let threads = 3 in
  let rounds = 8 in
  let body () =
    for _ = 1 to rounds do
      Usync.Mutex.lock m;
      Runner.Excl.critical excl (fun () ->
          Ult.compute 2e-5;
          incr count);
      Usync.Mutex.unlock m;
      Ult.compute 1e-5
    done
  in
  let us =
    List.init threads (fun i ->
        Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 2)
          ~name:(Printf.sprintf "locker%d" i) body)
  in
  Runtime.start rt;
  Runner.program ~runtime:rt ~ults:us
    ~oracle:(fun () ->
      Runner.all_finished rt;
      Runner.require (!count = threads * rounds)
        "mutex-ok: counter %d, expected %d" !count (threads * rounds);
      Runner.no_lost_wakeups rt)
    ()

(* Single-producer single-consumer channel: delivery must be complete
   and FIFO in every schedule, and no wakeup may be lost. *)
let channel_fifo_prog env =
  let rt = preemptive_rt env in
  let ch = Usync.Channel.create rt in
  let n = 40 in
  let got = ref [] in
  let producer =
    Runtime.spawn rt ~kind:Types.Klt_switching ~home:0 ~name:"producer"
      (fun () ->
        for i = 1 to n do
          Usync.Channel.send ch i;
          if i mod 4 = 0 then Ult.compute 1e-5
        done)
  in
  let consumer =
    Runtime.spawn rt ~kind:Types.Klt_switching ~home:1 ~name:"consumer"
      (fun () ->
        for _ = 1 to n do
          got := Usync.Channel.recv ch :: !got;
          Ult.compute 5e-6
        done)
  in
  Runtime.start rt;
  Runner.program ~runtime:rt ~ults:[ producer; consumer ]
    ~oracle:(fun () ->
      Runner.all_finished rt;
      Runner.require
        (List.rev !got = List.init n (fun i -> i + 1))
        "channel-fifo: messages reordered or dropped (%d received)"
        (List.length !got);
      Runner.no_lost_wakeups rt)
    ()

(* ------------------------------------------------------------------ *)
(* Lock-algorithm suite (lib/core/ulock.ml): each algorithm runs under
   preemption + fault injection with the mutual-exclusion monitor, the
   liveness and lost-wakeup oracles, and — for the queue locks — the
   FIFO-fairness oracle over the lock's own arrival/grant history.  The
   broken variants are seeded regressions: the checker must catch each
   one's characteristic failure. *)

let lock_threads = 3

let lock_rounds = 3

let lock_prog ~section ~make env =
  let rt = preemptive_rt env in
  let lock, unlock, extra_oracle = make rt in
  let excl = Runner.Excl.create section in
  let body () =
    for _ = 1 to lock_rounds do
      lock ();
      Runner.Excl.critical excl (fun () -> Ult.compute 2e-5);
      unlock ();
      Ult.compute 1e-5
    done
  in
  let us =
    List.init lock_threads (fun i ->
        Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 2)
          ~name:(Printf.sprintf "locker%d" i) body)
  in
  Runtime.start rt;
  Runner.program ~runtime:rt ~ults:us
    ~oracle:(fun () ->
      Runner.all_finished rt;
      Runner.require
        (Runner.Excl.entries excl = lock_threads * lock_rounds)
        "%s: %d critical entries, expected %d" section
        (Runner.Excl.entries excl)
        (lock_threads * lock_rounds);
      extra_oracle ();
      Runner.no_lost_wakeups rt)
    ()

let fifo_oracle name history () =
  let fifo = Runner.Fifo.create name in
  let arrivals, grants = history () in
  List.iter (Runner.Fifo.arrived fifo) arrivals;
  List.iter (Runner.Fifo.granted fifo) grants;
  Runner.Fifo.check fifo

let ticket_prog ?unfair env =
  lock_prog ~section:"ticket section"
    ~make:(fun rt ->
      let lk = Ulock.Ticket.create ?unfair rt in
      ( (fun () -> Ulock.Ticket.lock lk),
        (fun () -> Ulock.Ticket.unlock lk),
        fifo_oracle "ticket lock" (fun () -> Ulock.Ticket.history lk) ))
    env

let ttas_prog ?racy env =
  lock_prog ~section:"ttas section"
    ~make:(fun rt ->
      let lk = Ulock.Ttas.create ?racy rt in
      ( (fun () -> Ulock.Ttas.lock lk),
        (fun () -> Ulock.Ttas.unlock lk),
        fun () -> () ))
    env

let mcs_prog ?drop_handoff env =
  lock_prog ~section:"mcs section"
    ~make:(fun rt ->
      let lk = Ulock.Mcs.create ?drop_handoff rt in
      ( (fun () -> Ulock.Mcs.lock lk),
        (fun () -> Ulock.Mcs.unlock lk),
        fifo_oracle "mcs lock" (fun () -> Ulock.Mcs.history lk) ))
    env

(* ------------------------------------------------------------------ *)
(* DPOR showcase: four writer processes, three labeled steps each, all
   at the same timestamp — 12!/(3!)^4 = 369,600 plain interleavings.
   Only the final steps of writers 0 and 1 touch shared state, so there
   are exactly two Mazurkiewicz traces; DPOR exhausts the space in a
   handful of schedules where plain DFS would need all 369,600. *)

let dpor_writers_prog env =
  let eng = env.Runner.eng in
  let writers = 4 in
  let privates = Array.make writers 0 in
  let shared = ref 0 in
  for p = 0 to writers - 1 do
    Engine.spawn eng
      ~footprint:(Printf.sprintf "w%d" p)
      (Printf.sprintf "writer%d" p)
      (fun () ->
        privates.(p) <- privates.(p) + 1;
        Engine.delay eng 0.0;
        privates.(p) <- privates.(p) + 1;
        if p < 2 then Engine.set_footprint "shared";
        Engine.delay eng 0.0;
        if p < 2 then shared := !shared + 1 else privates.(p) <- privates.(p) + 1)
  done;
  Runner.program
    ~oracle:(fun () ->
      Runner.require (!shared = 2) "dpor-writers: shared counter %d, expected 2"
        !shared;
      Array.iteri
        (fun p v ->
          let want = if p < 2 then 2 else 3 in
          Runner.require (v = want) "dpor-writers: writer %d count %d, expected %d"
            p v want)
        privates)
    ()

(* ------------------------------------------------------------------ *)
(* Sharded-pool overflow: engine-level counterpart of the real fiber
   runtime's cross-sub-pool overflow steal (lib/fiber/sched.ml).  One
   pinned "compute" worker drains its own queue under injected
   preemption ("pool.preempt") and worker stalls ("pool.stall"); two
   "analysis" workers each drain a private backlog first and
   overflow-steal from compute only once their own sub-pool is idle
   (steal-or-defer is a "pool.victim" choice point).  The oracle
   asserts every compute task runs exactly once — no lost and no
   duplicated fiber — and that no overflow steal happened while the
   thief's own sub-pool still had runnable work.

   [unfenced] re-introduces the bugs the one-step (fenced) commit
   prevents: the thief picks its victim task, then crosses a schedule
   point before marking it claimed, so two thieves (or a thief and the
   owner) can both run the same task — and analysis work refilled into
   the thief's own backlog across that window ("pool.refill") turns
   the completed steal into an overflow steal while the own sub-pool
   had runnable work, tripping the second oracle. *)

let pool_overflow_prog ?(unfenced = false) env =
  let eng = env.Runner.eng in
  let n_tasks = 4 in
  let exec = Array.make n_tasks 0 in
  let claimed = Array.make n_tasks false in
  let own = Array.make 2 2 in (* private analysis backlog per thief *)
  let bad_steal = ref false in
  let fault tag =
    match Engine.controller eng with
    | Some c -> Choice.fault c ~tag
    | None -> false
  in
  let pick ~n tag =
    match Engine.controller eng with
    | Some c -> Choice.pick c ~n ~tag
    | None -> 0
  in
  Engine.spawn eng ~footprint:"pool.q" "compute0" (fun () ->
      for i = 0 to n_tasks - 1 do
        if fault "pool.stall" then Engine.delay eng 2e-4;
        if not claimed.(i) then begin
          (* Owner's claim is one engine step: atomic by construction. *)
          claimed.(i) <- true;
          exec.(i) <- exec.(i) + 1
        end;
        (* New analysis work may land in a thief's backlog at any
           point — in particular inside an unfenced thief's
           pick-to-commit window, which is what keeps the bad-steal
           oracle honest.  A pick, not a fault: the unfenced variant
           runs without fault injection and still needs refills. *)
        if pick ~n:2 "pool.refill" = 1 then own.(i mod 2) <- own.(i mod 2) + 1;
        if fault "pool.preempt" then Engine.delay eng 0.0;
        Engine.delay eng 1e-4
      done);
  let oldest_unclaimed () =
    let r = ref (-1) in
    for i = n_tasks - 1 downto 0 do
      if not claimed.(i) then r := i
    done;
    !r
  in
  for w = 0 to 1 do
    Engine.spawn eng ~footprint:"pool.q"
      (Printf.sprintf "analysis%d" w)
      (fun () ->
        for _poll = 1 to 12 do
          if own.(w) > 0 then
            (* Own sub-pool busy: serve it; overflow is not allowed. *)
            own.(w) <- own.(w) - 1
          else begin
            match oldest_unclaimed () with
            | -1 -> ()
            | _ when pick ~n:2 "pool.victim" = 1 -> () (* defer the steal *)
            | i ->
                if unfenced then Engine.delay eng 0.0;
                (* ^ buggy variant: victim chosen, claim not yet marked *)
                (* Re-read at the commit point.  The fenced thief's
                   emptiness test, victim pick and claim are one engine
                   step, so own.(w) is still 0 here by construction; the
                   unfenced thief crossed a schedule point above, where
                   a pool.refill can land analysis work in its backlog —
                   stealing anyway is exactly the forbidden overflow
                   steal while the own sub-pool has runnable work. *)
                if own.(w) > 0 then bad_steal := true;
                claimed.(i) <- true;
                exec.(i) <- exec.(i) + 1
          end;
          Engine.delay eng 1e-4
        done)
  done;
  Runner.program
    ~oracle:(fun () ->
      Array.iteri
        (fun i n ->
          Runner.require (n = 1)
            "pool-overflow: task %d executed %d time(s), expected exactly 1"
            i n)
        exec;
      Runner.require (not !bad_steal)
        "pool-overflow: overflow steal while own sub-pool had runnable work")
    ()

(* Batched steal-half: engine-level counterpart of the real deque's
   [steal_batch] (lib/fiber/deque.ml).  A bounded ring with
   free-running [top]/[bottom]: the owner pushes while its room check
   [bottom - top < cap] says the ring has space, pops from the bottom
   otherwise, and a thief raids up to half the run per trip.  The
   sound design iterates per-element claims — each element's
   emptiness check, copy-out and [top] publish are one engine step,
   the batched analogue of the classic single-element CAS — so the
   oracle's exactly-once property holds in every schedule.

   [published] seeds the one-shot range-claim bug the real
   implementation documents and rejects: the thief publishes the
   whole claim ([top += k]) first and copies the elements out across
   schedule points.  The owner's room check then believes the
   claimed-but-uncopied slots are free, wraps, and overwrites one —
   the thief copies the new task (double execution) and the
   overwritten task never runs (lost fiber).  Either way a task's
   execution count leaves 1 and the checker must catch and shrink
   it. *)
let steal_batch_prog ?(published = false) env =
  let eng = env.Runner.eng in
  let cap = 4 in
  let n_tasks = 8 in
  let slots = Array.make cap (-1) in
  let top = ref 0 in
  let bottom = ref 0 in
  let exec = Array.make n_tasks 0 in
  let run_task i = if i >= 0 && i < n_tasks then exec.(i) <- exec.(i) + 1 in
  let fault tag =
    match Engine.controller eng with
    | Some c -> Choice.fault c ~tag
    | None -> false
  in
  Engine.spawn eng ~footprint:"deque" "owner" (fun () ->
      let next = ref 0 in
      while !next < n_tasks do
        if !bottom - !top < cap then begin
          (* Room per the free-running indices: push is one step. *)
          slots.(!bottom mod cap) <- !next;
          bottom := !bottom + 1;
          incr next
        end
        else if !bottom > !top then begin
          (* Ring full: pop the newest instead (one step). *)
          bottom := !bottom - 1;
          run_task slots.(!bottom mod cap)
        end;
        if fault "deque.stall" then Engine.delay eng 2e-4;
        Engine.delay eng 1e-4
      done;
      while !bottom > !top do
        bottom := !bottom - 1;
        run_task slots.(!bottom mod cap)
      done);
  Engine.spawn eng ~footprint:"deque" "thief" (fun () ->
      for _raid = 1 to 10 do
        let run = !bottom - !top in
        if run > 0 then begin
          let k = min 2 ((run + 1) / 2) in
          if published then begin
            let t0 = !top in
            top := t0 + k (* whole range claimed before any copy-out *);
            for j = 0 to k - 1 do
              Engine.delay eng 1e-4 (* publish-to-copy window *);
              run_task slots.((t0 + j) mod cap)
            done
          end
          else
            (* Iterated claims: check + copy + publish per element in
               one engine step; stop when the run dries up. *)
            let rec claim j =
              if j < k && !bottom - !top > 0 then begin
                let i = slots.(!top mod cap) in
                top := !top + 1;
                run_task i;
                Engine.delay eng 1e-4;
                claim (j + 1)
              end
            in
            claim 0
        end;
        Engine.delay eng 1e-4
      done);
  Runner.program
    ~oracle:(fun () ->
      Array.iteri
        (fun i n ->
          Runner.require (n = 1)
            "steal-batch: task %d executed %d time(s), expected exactly 1" i n)
        exec)
    ()

(* Serving-injector model: the engine-level counterpart of the
   lib/serve open-loop load generator.  An injector ULT publishes
   requests at fixed offsets — never waiting for completions, the
   open-loop property — and two server ULTs on separate workers claim
   them under a Usync mutex, run a short/long service mix long enough
   for the 0.3 ms preemption timer to strike mid-service, and fulfill
   the request's response Ivar.  Once everything is published the
   injector awaits every response, so the checker's schedules (plus
   injected timer/stall faults) probe the two properties the real
   generator relies on: every request executes exactly once, and no
   response wake is lost (a lost wake parks the injector forever and
   [all_finished] trips).

   [racy] splits the claim: the server picks its request, then crosses
   a schedule point before marking it claimed, so two servers can
   dispatch the same request — the double-execution the oracle must
   catch. *)
let serve_overload_prog ?(racy = false) env =
  let rt = preemptive_rt env in
  let n_req = 5 in
  let exec = Array.make n_req 0 in
  let claimed = Array.make n_req false in
  let published = ref 0 in
  let m = Usync.Mutex.create rt in
  let resp = Array.init n_req (fun _ -> Usync.Ivar.create rt) in
  let injector =
    Runtime.spawn rt ~kind:Types.Klt_switching ~home:0 ~name:"injector"
      (fun () ->
        for i = 0 to n_req - 1 do
          published := i + 1;
          Ult.compute 1e-4 (* inter-arrival gap; no await — open loop *)
        done;
        Array.iter Usync.Ivar.read resp)
  in
  let next_unclaimed () =
    let r = ref (-1) in
    for i = !published - 1 downto 0 do
      if not claimed.(i) then r := i
    done;
    !r
  in
  let servers =
    List.init 2 (fun w ->
        Runtime.spawn rt ~kind:Types.Klt_switching ~home:w
          ~name:(Printf.sprintf "server%d" w)
          (fun () ->
            let polls = ref 0 in
            let all_claimed () =
              !published = n_req && Array.for_all Fun.id claimed
            in
            while (not (all_claimed ())) && !polls < 200 do
              incr polls;
              let i =
                if racy then begin
                  (* Buggy variant: request picked, claim not yet
                     marked — the schedule point in between lets the
                     other server pick the same request. *)
                  let i = next_unclaimed () in
                  if i >= 0 then begin
                    Ult.compute 1e-4 (* pick-to-claim window *);
                    claimed.(i) <- true
                  end;
                  i
                end
                else begin
                  Usync.Mutex.lock m;
                  let i = next_unclaimed () in
                  if i >= 0 then claimed.(i) <- true;
                  Usync.Mutex.unlock m;
                  i
                end
              in
              if i < 0 then
                (* A zero-time yield would burn the poll budget before
                   the injector publishes anything; pace the idle poll
                   so the servers span the whole injection horizon.
                   Every duration in this program is a multiple of the
                   1e-4 arrival gap on purpose: schedule-relevant
                   events land on shared timestamps, so the chooser's
                   tie-breaking — not wall-clock luck — decides who
                   wins a pick-to-claim race. *)
                Ult.compute 1e-4
              else begin
                (* Long services overlap several 0.3 ms timer fires, so
                   servers get preempted mid-request. *)
                Ult.compute (if i mod 4 = 3 then 8e-4 else 1e-4);
                exec.(i) <- exec.(i) + 1;
                if Usync.Ivar.peek resp.(i) = None then
                  Usync.Ivar.fill resp.(i) ()
              end
            done))
  in
  Runtime.start rt;
  Runner.program ~runtime:rt ~ults:(injector :: servers)
    ~oracle:(fun () ->
      Array.iteri
        (fun i n ->
          Runner.require (n = 1)
            "serve-overload: request %d executed %d time(s), expected \
             exactly 1"
            i n)
        exec;
      Runner.all_finished rt)
    ()

let all =
  [
    {
      sname = "deadlock";
      sdesc = "lock-order inversion (AB vs BA) caught by the watchdog";
      expect = Fail;
      sfaults = false;
      sbudget = 20;
      sstrategy = None;
      sexhaust = false;
      stags = [];
      prog = deadlock_prog;
    };
    {
      sname = "lost-wakeup";
      sdesc = "check-then-sleep window loses a wakeup under worker stalls";
      expect = Fail;
      sfaults = true;
      sbudget = 300;
      sstrategy = None;
      sexhaust = false;
      stags = [];
      prog = lost_wakeup_prog;
    };
    {
      sname = "racy-flag";
      sdesc = "broken test-and-set trips the mutual-exclusion monitor";
      expect = Fail;
      sfaults = false;
      sbudget = 20;
      sstrategy = None;
      sexhaust = false;
      stags = [];
      prog = racy_flag_prog;
    };
    {
      sname = "mutex-ok";
      sdesc = "correct mutex: monitor and counters hold in every schedule";
      expect = Pass;
      sfaults = false;
      sbudget = 60;
      sstrategy = None;
      sexhaust = false;
      stags = [];
      prog = mutex_ok_prog;
    };
    {
      sname = "channel-fifo";
      sdesc = "SPSC channel stays complete and FIFO in every schedule";
      expect = Pass;
      sfaults = false;
      sbudget = 60;
      sstrategy = None;
      sexhaust = false;
      stags = [];
      prog = channel_fifo_prog;
    };
    {
      sname = "ticket-lock";
      sdesc = "ticket lock: exclusion + FIFO fairness under preemption/faults";
      expect = Pass;
      sfaults = true;
      sbudget = 40;
      sstrategy = None;
      sexhaust = false;
      stags = [ "lock" ];
      prog = ticket_prog ?unfair:None;
    };
    {
      sname = "ticket-unfair";
      sdesc = "broken ticket lock: LIFO barging wakeups break FIFO fairness";
      expect = Fail;
      sfaults = false;
      sbudget = 120;
      sstrategy = None;
      sexhaust = false;
      stags = [ "lock" ];
      prog = ticket_prog ~unfair:true;
    };
    {
      sname = "ttas-lock";
      sdesc = "TTAS+backoff lock: exclusion under preemption/faults";
      expect = Pass;
      sfaults = true;
      sbudget = 40;
      sstrategy = None;
      sexhaust = false;
      stags = [ "lock" ];
      prog = ttas_prog ?racy:None;
    };
    {
      sname = "ttas-racy";
      sdesc = "broken TTAS: preemptible test-to-set window breaks exclusion";
      expect = Fail;
      sfaults = false;
      sbudget = 40;
      sstrategy = None;
      sexhaust = false;
      stags = [ "lock" ];
      prog = ttas_prog ~racy:true;
    };
    {
      sname = "mcs-lock";
      sdesc = "MCS queue lock: exclusion + FIFO fairness under preemption/faults";
      expect = Pass;
      sfaults = true;
      sbudget = 40;
      sstrategy = None;
      sexhaust = false;
      stags = [ "lock" ];
      prog = mcs_prog ?drop_handoff:None;
    };
    {
      sname = "mcs-drop";
      sdesc = "broken MCS: release drops a mid-enqueue successor (deadlock)";
      expect = Fail;
      sfaults = false;
      sbudget = 200;
      sstrategy = None;
      sexhaust = false;
      stags = [ "lock" ];
      prog = mcs_prog ~drop_handoff:true;
    };
    {
      sname = "pool-overflow";
      sdesc = "sub-pool overflow: atomic claim keeps every fiber exactly-once";
      expect = Pass;
      sfaults = true;
      sbudget = 80;
      sstrategy = None;
      sexhaust = false;
      stags = [ "pool" ];
      prog = pool_overflow_prog ?unfenced:None;
    };
    {
      sname = "pool-overflow-unfenced";
      sdesc = "split overflow claim double-runs a fiber taken by two thieves";
      expect = Fail;
      sfaults = false;
      sbudget = 40;
      sstrategy = None;
      sexhaust = false;
      stags = [ "pool" ];
      prog = pool_overflow_prog ~unfenced:true;
    };
    {
      sname = "steal-batch";
      sdesc =
        "batched steal-half: iterated per-element claims keep every task \
         exactly-once";
      expect = Pass;
      sfaults = true;
      sbudget = 80;
      sstrategy = None;
      sexhaust = false;
      stags = [ "steal" ];
      prog = steal_batch_prog ?published:None;
    };
    {
      sname = "steal-batch-published";
      sdesc =
        "range claim published before copy-out lets the owner overwrite a \
         claimed slot";
      expect = Fail;
      sfaults = false;
      sbudget = 80;
      sstrategy = None;
      sexhaust = false;
      stags = [ "steal" ];
      prog = steal_batch_prog ~published:true;
    };
    {
      sname = "serve-overload";
      sdesc =
        "open-loop injector: mutexed claim keeps requests exactly-once, no \
         response wake lost";
      expect = Pass;
      sfaults = true;
      sbudget = 60;
      sstrategy = None;
      sexhaust = false;
      stags = [ "serve" ];
      prog = serve_overload_prog ?racy:None;
    };
    {
      sname = "serve-overload-racy";
      sdesc = "split pick-to-claim window double-dispatches a request";
      expect = Fail;
      sfaults = false;
      sbudget = 120;
      sstrategy = None;
      sexhaust = false;
      stags = [ "serve" ];
      prog = serve_overload_prog ~racy:true;
    };
    {
      sname = "dpor-writers";
      sdesc = "369,600-interleaving writer program exhausted by DPOR";
      expect = Pass;
      sfaults = false;
      sbudget = 64;
      sstrategy = Some Runner.Dpor;
      sexhaust = true;
      stags = [ "dpor" ];
      prog = dpor_writers_prog;
    };
  ]

let find name = List.find_opt (fun s -> s.sname = name) all

let find_tag tag = List.filter (fun s -> List.mem tag s.stags) all

let names () = List.sort compare (List.map (fun s -> s.sname) all)
