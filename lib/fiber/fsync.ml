(* All primitives follow the same pattern: a host [Mutex.t] protects the
   state; blocked fibers park a wake closure (provided by
   [Fiber.suspend]) in the state and are re-queued by whoever changes
   it.  The host lock is only held for O(1) bookkeeping.

   Wakes always run *outside* the host lock (calling into the scheduler
   while holding it would invert the lock order with the pool's park
   path), and always in FIFO registration order: Mutex and Channel
   keep their waiters in a [Queue], Barrier releases its accumulated
   list oldest-arrival-first.  test_fsync.ml pins the FIFO order.

   Sub-pool pinning: a wake closure re-queues the blocked fiber on the
   fiber's *home* sub-pool (Sched's Suspend/Suspend_or handlers capture
   it), not on the waker's.  A mutex shared across sub-pools therefore
   never migrates fibers between them — an "analysis" fiber woken by a
   "compute" fiber goes back to the analysis sub-pool's run queues. *)

module Mutex = struct
  type t = {
    lock : Stdlib.Mutex.t;
    mutable held : bool;
    waiters : (unit -> unit) Queue.t;
  }

  let create () = { lock = Stdlib.Mutex.create (); held = false; waiters = Queue.create () }

  let lock t =
    let acquired = ref false in
    while not !acquired do
      Sched.suspend_or (fun wake ->
          Stdlib.Mutex.lock t.lock;
          if not t.held then begin
            t.held <- true;
            acquired := true;
            Stdlib.Mutex.unlock t.lock;
            `Continue
          end
          else begin
            Queue.add wake t.waiters;
            Stdlib.Mutex.unlock t.lock;
            `Suspended
          end)
    done

  let unlock t =
    Stdlib.Mutex.lock t.lock;
    if not t.held then begin
      Stdlib.Mutex.unlock t.lock;
      invalid_arg "Fsync.Mutex.unlock: not locked"
    end
    else begin
      (* Release and wake one candidate; it re-contends (barging is fine
         and avoids lock-ownership transfer subtleties). *)
      t.held <- false;
      let w = Queue.take_opt t.waiters in
      Stdlib.Mutex.unlock t.lock;
      match w with Some wake -> wake () | None -> ()
    end

  let with_lock t f =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) f
end

module Channel = struct
  type 'a t = {
    lock : Stdlib.Mutex.t;
    items : 'a Queue.t;
    readers : (unit -> unit) Queue.t;
  }

  let create () =
    { lock = Stdlib.Mutex.create (); items = Queue.create (); readers = Queue.create () }

  let send t v =
    Stdlib.Mutex.lock t.lock;
    Queue.add v t.items;
    let r = Queue.take_opt t.readers in
    Stdlib.Mutex.unlock t.lock;
    match r with Some wake -> wake () | None -> ()

  let try_recv t =
    Stdlib.Mutex.lock t.lock;
    let v = Queue.take_opt t.items in
    Stdlib.Mutex.unlock t.lock;
    v

  let rec recv t =
    match try_recv t with
    | Some v -> v
    | None ->
        Sched.suspend_or (fun wake ->
            Stdlib.Mutex.lock t.lock;
            if Queue.is_empty t.items then begin
              Queue.add wake t.readers;
              Stdlib.Mutex.unlock t.lock;
              `Suspended
            end
            else begin
              Stdlib.Mutex.unlock t.lock;
              `Continue
            end);
        recv t
end

module Barrier = struct
  type t = {
    lock : Stdlib.Mutex.t;
    parties : int;
    mutable arrived : int;
    mutable waiters : (unit -> unit) list;
  }

  let create parties =
    if parties <= 0 then invalid_arg "Fsync.Barrier.create: parties <= 0";
    {
      lock = Stdlib.Mutex.create ();
      parties;
      arrived = 0;
      waiters = [];
    }

  let wait t =
    let passed = ref false in
    while not !passed do
      Sched.suspend_or (fun wake ->
          Stdlib.Mutex.lock t.lock;
          t.arrived <- t.arrived + 1;
          if t.arrived = t.parties then begin
            t.arrived <- 0;
            let ws = t.waiters in
            t.waiters <- [];
            passed := true;
            Stdlib.Mutex.unlock t.lock;
            (* [waiters] accumulated newest-first; release in arrival
               (FIFO) order. *)
            List.iter (fun w -> w ()) (List.rev ws);
            `Continue
          end
          else begin
            t.waiters <- wake :: t.waiters;
            passed := true (* will pass once woken *);
            Stdlib.Mutex.unlock t.lock;
            `Suspended
          end)
    done
end
