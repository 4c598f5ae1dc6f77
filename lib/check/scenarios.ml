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
  stags : string list;  (** registry groups, e.g. ["shipped"] *)
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
   critical section, so no schedule may trip the monitor, worker stalls
   included.  Each locker then fills its own ivar and waits on its
   neighbour's: a lost ivar wake leaves a locker blocked. *)
let mutex_ok_prog env =
  let rt = preemptive_rt env in
  let m = Usync.Mutex.create rt in
  let excl = Runner.Excl.create "mutex section" in
  let count = ref 0 in
  let threads = 3 in
  let rounds = 8 in
  let dones = Array.init threads (fun _ -> Usync.Ivar.create rt) in
  let body i () =
    for _ = 1 to rounds do
      Usync.Mutex.lock m;
      Runner.Excl.critical excl (fun () ->
          Ult.compute 2e-5;
          incr count);
      Usync.Mutex.unlock m;
      Ult.compute 1e-5
    done;
    Usync.Ivar.fill dones.(i) ();
    Usync.Ivar.read dones.((i + 1) mod threads)
  in
  let us =
    List.init threads (fun i ->
        Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 2)
          ~name:(Printf.sprintf "locker%d" i) (body i))
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
(* The shipped lock-free run queues: lib/fiber's own deque.ml and
   scheduler.ml, compiled in lib/check/traced against an [Atomic] whose
   every access is a schedule point labeled with the cell it touches.
   Each process stands for a worker and takes no virtual time, so all
   atomic accesses tie and DPOR explores every order of the dependent
   ones.  Tasks are the ints [0 .. tasks-1]; an owner ends by popping
   until its queue is empty, and the oracle requires every task to have
   run exactly once. *)

module Deque = Traced.Deque
module Scheduler = Traced.Scheduler

let shipped ?(torn_cas = false) ~tasks env body =
  Traced.Atomic.reset ~torn_cas;
  let ran = Array.make tasks 0 in
  let run = Option.iter (fun i -> ran.(i) <- ran.(i) + 1) in
  let rec drain pop =
    match pop () with
    | Some _ as t ->
        run t;
        drain pop
    | None -> ()
  in
  body ~spawn:(Engine.spawn env.Runner.eng) ~run ~drain;
  Runner.program
    ~oracle:(fun () ->
      Array.iteri
        (fun i n ->
          Runner.require (n = 1) "task %d ran %d time(s), expected exactly 1" i n)
        ran)
    ()

(* The owner pushes every task and pops them back against a thief: the
   last-element race, where both CAS [top], and the steal-half raid
   against the owner's interior pops.  The thief starts once the owner
   has pushed [head_start] tasks.  With 24 tasks and at most six of them
   stolen, the 16-slot ring must grow. *)
let deque_prog ?torn_cas ?(head_start = 0) ~tasks thief env =
  shipped ?torn_cas ~tasks env (fun ~spawn ~run ~drain ->
      let d = Deque.create () in
      spawn "owner" (fun () ->
          for i = 0 to tasks - 1 do
            if i = head_start then spawn "thief" (fun () -> thief d run);
            Deque.push d i
          done;
          drain (fun () -> Deque.pop d)))

let steals n d run =
  for _ = 1 to n do
    run (Deque.steal d)
  done

let raids n ~max d run =
  for _ = 1 to n do
    run (Deque.steal_batch d ~max ~spill:(fun i -> run (Some i)))
  done

(* One raid of [Scheduler.steal_batch] from [slot], its [rng] fixed. *)
let raid s ~slot ~rng ~max run =
  let spill i = run (Some i) in
  run (Scheduler.steal_batch s ~slot ~rng:(fun () -> rng) ~max ~spill)

(* Work-first joins: the owner pushes two tasks and claims each back
   with [take], the older first, so that [take] pops the newer and
   re-pushes it, while a member raids.  The raider's [rng] names its
   own slot, so its raid is the sweep alone. *)
let sched_take_prog env =
  shipped ~tasks:2 env (fun ~spawn ~run ~drain ->
      let s = Scheduler.create ~slots:2 in
      spawn "owner" (fun () ->
          Scheduler.push s ~slot:0 0;
          Scheduler.push s ~slot:0 1;
          List.iter (fun i -> if Scheduler.take s ~slot:0 i then run (Some i)) [ 0; 1 ];
          drain (fun () -> Scheduler.pop s ~slot:0));
      spawn "raider" (fun () -> raid s ~slot:1 ~rng:1 ~max:1 run))

(* An external submission ([slot = -1]) lands in a front segment, where
   the member may pop it and re-queue it as a yield while a thief from
   another sub-pool raids.  The member drains after 1 s, once the
   others have finished, and then finds the queues empty. *)
let sched_submit_prog env =
  shipped ~tasks:1 env (fun ~spawn ~run ~drain ->
      let s = Scheduler.create ~slots:1 in
      spawn "submitter" (fun () -> Scheduler.push s ~slot:(-1) 0);
      spawn "member" (fun () ->
          Option.iter (Scheduler.push_front s ~slot:0) (Scheduler.pop s ~slot:0);
          Engine.delay (Engine.self_engine ()) 1.0;
          drain (fun () -> Scheduler.pop s ~slot:0);
          let left = Scheduler.length s in
          Runner.require (left = 0) "%d task(s) left queued" left);
      spawn "overflow" (fun () -> raid s ~slot:(-1) ~rng:0 ~max:2 run))

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
      sdesc = "correct mutex under stalls: monitor, counters and ivar wakes hold";
      expect = Pass;
      sfaults = true;
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
      sname = "deque-steal";
      sdesc = "shipped deque: owner push/pop vs two steals, each task once";
      expect = Pass;
      sfaults = false;
      sbudget = 8000;
      sstrategy = Some Runner.Dpor;
      sexhaust = true;
      stags = [ "shipped" ];
      prog = deque_prog ~tasks:2 (steals 2);
    };
    {
      sname = "deque-torn-cas";
      sdesc = "shipped deque on a torn CAS: owner and thief both claim a task";
      expect = Fail;
      sfaults = false;
      sbudget = 20;
      sstrategy = Some Runner.Dpor;
      sexhaust = false;
      stags = [ "shipped" ];
      prog = deque_prog ~torn_cas:true ~tasks:1 (steals 1);
    };
    {
      sname = "deque-batch";
      sdesc = "shipped deque: a steal-half raid vs the owner's pops";
      expect = Pass;
      sfaults = false;
      sbudget = 6000;
      sstrategy = Some Runner.Dpor;
      sexhaust = true;
      stags = [ "shipped" ];
      prog = deque_prog ~tasks:3 (raids 1 ~max:2);
    };
    {
      sname = "deque-grow";
      sdesc = "shipped deque: the ring grows past 16 slots under raids";
      expect = Pass;
      sfaults = false;
      sbudget = 500;
      sstrategy = None;
      sexhaust = false;
      stags = [ "shipped" ];
      prog = deque_prog ~head_start:14 ~tasks:24 (raids 3 ~max:2);
    };
    {
      sname = "sched-take";
      sdesc = "shipped Scheduler.take vs a raid: a join claims its task once";
      expect = Pass;
      sfaults = false;
      sbudget = 2500;
      sstrategy = Some Runner.Dpor;
      sexhaust = true;
      stags = [ "shipped" ];
      prog = sched_take_prog;
    };
    {
      sname = "sched-submit";
      sdesc = "shipped external submit vs member pop/yield and an overflow raid";
      expect = Pass;
      sfaults = false;
      sbudget = 2500;
      sstrategy = Some Runner.Dpor;
      sexhaust = true;
      stags = [ "shipped" ];
      prog = sched_submit_prog;
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
