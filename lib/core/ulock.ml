open Types

(* Classic lock algorithms ported to the ULT layer, after "Basic Lock
   Algorithms in Lightweight Thread Environments": ticket, test-and-
   test-and-set with exponential backoff, and MCS.  In an M:N runtime a
   waiter must not spin on its worker forever — a preempted holder may
   need that very worker to run — so every algorithm bounds its spin
   with cooperative yields and then parks on [Ult.suspend], exactly the
   state the checker's deadlock watchdog and lost-wakeup accounting
   observe.  Parks and wakes go through [Usync.park] / [Usync.wake],
   whose sync events keep the [no_lost_wakeups] oracle balanced.

   Each lock has a seeded broken variant for the checker's regression
   scenarios:
   - [Ticket ~unfair] wakes the most recently parked waiter (LIFO
     barging) instead of the next ticket — mutual exclusion holds but
     FIFO fairness breaks.
   - [Ttas ~racy] opens a preemptible window between the test and the
     set — the classic torn test-and-set, mutual exclusion breaks.
   - [Mcs ~drop_handoff] releases without waiting for a mid-enqueue
     successor to link itself — the successor parks forever (deadlock).

   Simulation note: code between two effects executes atomically (the
   simulator only interleaves at effect boundaries), so the "atomic"
   instructions (fetch-and-add, swap, CAS) are plain OCaml here and the
   broken variants insert explicit [Ult.compute] windows where the
   ported algorithm has a real preemptible gap. *)

let spins_before_park = 2

module Ticket = struct
  type t = {
    rt : Runtime.t;
    unfair : bool;
    mutable next_ticket : int;
    mutable serving : int;
    mutable parked : (int * ult) list;  (* most recently parked first *)
    mutable arrivals : int list;  (* reversed *)
    mutable grants : int list;  (* reversed *)
  }

  let create ?(unfair = false) rt =
    { rt; unfair; next_ticket = 0; serving = 0; parked = []; arrivals = [];
      grants = [] }

  let lock t =
    let my = t.next_ticket in
    t.next_ticket <- my + 1 (* fetch-and-add *);
    t.arrivals <- my :: t.arrivals;
    let rec wait spins =
      if t.serving <> my then
        if spins > 0 then begin
          Ult.yield ();
          wait (spins - 1)
        end
        else begin
          (* The serving check and the park are one atomic step, so an
             unlock cannot slip between them — no lost-wakeup window. *)
          Usync.park t.rt (fun self -> t.parked <- (my, self) :: t.parked);
          wait 1 (* woken: re-check, spurious-wake safe *)
        end
    in
    wait spins_before_park;
    t.grants <- my :: t.grants

  let unlock t =
    if t.unfair then
      (* Broken variant: barging hand-off to the most recently parked
         waiter, skipping the ticket order.  Exclusion still holds (only
         the woken waiter observes [serving] = its ticket) but grants go
         LIFO — the FIFO oracle catches it. *)
      match t.parked with
      | (tk, u) :: rest ->
          t.parked <- rest;
          t.serving <- tk;
          Usync.wake t.rt u
      | [] -> t.serving <- t.serving + 1
    else begin
      t.serving <- t.serving + 1;
      match List.assoc_opt t.serving t.parked with
      | Some u ->
          t.parked <- List.remove_assoc t.serving t.parked;
          Usync.wake t.rt u
      | None -> () (* next holder is still spinning, it will see serving *)
    end

  let history t = (List.rev t.arrivals, List.rev t.grants)
end

module Ttas = struct
  type t = { rt : Runtime.t; racy : bool; mutable busy : bool }

  let create ?(racy = false) rt = { rt; racy; busy = false }

  let lock t =
    let rec acquire backoff =
      if t.busy then begin
        (* Test loop: burn the backoff (preemptible), yield, retry with
           the window doubled — the classic contention throttle. *)
        Ult.compute backoff;
        Ult.yield ();
        acquire (Float.min 8e-5 (backoff *. 2.0))
      end
      else if t.racy then begin
        (* Broken variant: the test and the set are separated by a
           preemptible window, so two threads can both see [busy =
           false] and both enter. *)
        Ult.compute 1e-5;
        t.busy <- true
      end
      else t.busy <- true (* test-and-set: atomic step *)
    in
    acquire 1e-6

  let unlock t =
    if not t.busy then invalid_arg "Ulock.Ttas.unlock: not locked";
    t.busy <- false
end

module Mcs = struct
  type node = {
    mutable granted : bool;
    mutable next : node option;
    mutable nparked : ult option;
  }

  type t = {
    rt : Runtime.t;
    drop_handoff : bool;
    mutable tail : node option;
    mutable holder : node option;
    mutable nseq_ctr : int;
    mutable arrivals : int list;  (* reversed *)
    mutable grants : int list;  (* reversed *)
  }

  let create ?(drop_handoff = false) rt =
    { rt; drop_handoff; tail = None; holder = None; nseq_ctr = 0;
      arrivals = []; grants = [] }

  let lock t =
    let seq = t.nseq_ctr in
    t.nseq_ctr <- seq + 1;
    let me = { granted = false; next = None; nparked = None } in
    t.arrivals <- seq :: t.arrivals;
    let prev = t.tail in
    t.tail <- Some me (* atomic swap *);
    (match prev with
    | None -> me.granted <- true
    | Some p ->
        (* Between the tail swap and linking into the predecessor the
           enqueuer can be preempted — the window every MCS port must
           handle at release time. *)
        Ult.compute 2e-5;
        p.next <- Some me;
        let rec wait spins =
          if not me.granted then
            if spins > 0 then begin
              Ult.yield ();
              wait (spins - 1)
            end
            else begin
              Usync.park t.rt (fun self -> me.nparked <- Some self);
              wait 1
            end
        in
        wait spins_before_park);
    t.holder <- Some me;
    t.grants <- seq :: t.grants

  let grant t n =
    n.granted <- true;
    match n.nparked with
    | Some u ->
        n.nparked <- None;
        Usync.wake t.rt u
    | None -> () (* successor still spinning, it will see granted *)

  let unlock t =
    let me =
      match t.holder with
      | Some n -> n
      | None -> invalid_arg "Ulock.Mcs.unlock: not locked"
    in
    t.holder <- None;
    match me.next with
    | Some n -> grant t n
    | None -> (
        match t.tail with
        | Some tl when tl == me -> t.tail <- None (* CAS: atomic step *)
        | _ ->
            (* A successor has swapped the tail but not linked yet. *)
            if t.drop_handoff then
              (* Broken variant: walk away instead of waiting for the
                 link — the successor is never granted and parks
                 forever (deadlock, caught by the watchdog). *)
              ()
            else
              let rec await () =
                match me.next with
                | Some n -> grant t n
                | None ->
                    Ult.yield ();
                    await ()
              in
              await ())

  let history t = (List.rev t.arrivals, List.rev t.grants)
end
