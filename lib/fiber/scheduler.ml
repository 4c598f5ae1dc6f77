(* Pluggable sub-pool schedulers for the real fiber runtime.

   A sub-pool (Sched) owns one scheduler instance covering its member
   workers, addressed by *slot* — the member's index within the
   sub-pool, not its global worker id.  Callers outside the sub-pool
   (targeted spawns, cross-sub-pool wakes, overflow thieves) pass
   [slot = -1]; every implementation must make that path safe from any
   domain.  The contract per operation:

   - [push ~slot ~prio]: make a task runnable.  [slot >= 0] is the
     owning member's fast path; [slot = -1] is an external submission.
     [prio] is a hint only the priority scheduler reads ([> 0] = in-situ
     analysis work).
   - [push_front ~slot ~prio]: re-queue a yielded task such that it does
     not run before other pending local work (yield must give way).
   - [pop ~slot]: the member's own next task; owner-only.
   - [steal ~slot ~rng]: take a task another member made runnable
     ([slot >= 0]), or — with [slot = -1] — hand one to a foreign
     worker (cross-sub-pool overflow).  [rng ()] returns a fresh
     non-negative pseudo-random int for victim selection.
   - [steal_batch ~slot ~rng ~max ~spill]: like [steal], but claim up
     to [max] tasks from one victim in a single raid: the first is
     returned, the rest go to [spill] in queue order.  [spill] must
     never be invoked with an internal lock held (the runtime's spill
     re-enters [push] on the thief's own scheduler; a held victim lock
     would build a thief->victim lock cycle across workers raiding
     each other).  Implementations cap the batch at half the victim's
     run so the victim stays supplied.
   - [length]: racy size snapshot (diagnostics / idleness heuristics),
     never negative.

   Three policies ship, all behind the same [SCHEDULER] interface:
   [Ws] (the Chase–Lev work stealing the flat pool always had) and
   ports of the paper's two simulated schedulers, [Packing]
   (lib/core/sched_packing.ml, Algorithm 1) and [Priority]
   (lib/core/sched_priority.ml, §4.3 in-situ).  The latter two trade
   the lock-free fast path for the paper's pool structures — a mutex
   per FIFO pool is fine off the default path. *)

type task = unit -> unit

module type SCHEDULER = sig
  type t

  val name : string

  val create : slots:int -> t

  val push : t -> slot:int -> prio:int -> task -> unit

  val push_front : t -> slot:int -> prio:int -> task -> unit

  val pop : t -> slot:int -> task option

  val steal : t -> slot:int -> rng:(unit -> int) -> task option

  val steal_batch :
    t ->
    slot:int ->
    rng:(unit -> int) ->
    max:int ->
    spill:(task -> unit) ->
    task option

  val length : t -> int
end

(* ------------------------------------------------------------------ *)
(* Work stealing: one Chase–Lev deque per member (lock-free, LIFO owner
   end, FIFO thief end).  External pushes cannot enter a Chase–Lev ring
   (the owner end admits a single producer), so they land in the front
   segment of a round-robin-chosen deque, where both the member and any
   thief will find them. *)

module Ws : SCHEDULER = struct
  type t = { deques : task Deque.t array; ext : int Atomic.t }

  let name = "ws"

  let create ~slots =
    { deques = Array.init slots (fun _ -> Deque.create ()); ext = Atomic.make 0 }

  let ext_slot t = Atomic.fetch_and_add t.ext 1 mod Array.length t.deques

  let push t ~slot ~prio:_ x =
    if slot >= 0 then Deque.push t.deques.(slot) x
    else Deque.push_front t.deques.(ext_slot t) x

  let push_front t ~slot ~prio:_ x =
    if slot >= 0 then Deque.push_front t.deques.(slot) x
    else Deque.push_front t.deques.(ext_slot t) x

  let pop t ~slot = Deque.pop t.deques.(slot)

  (* Random probes first (contention spread), then a deterministic
     sweep so no runnable task can be missed by an idle member.
     [take] is the per-victim raid (single steal or a batched one). *)
  let raid t ~slot ~rng ~take =
    let n = Array.length t.deques in
    let rec probe k =
      if k = 0 then None
      else
        let v = rng () mod n in
        if v = slot then probe (k - 1)
        else
          match take t.deques.(v) with
          | Some _ as r -> r
          | None -> probe (k - 1)
    in
    match probe (2 * n) with
    | Some _ as r -> r
    | None ->
        let rec sweep i =
          if i = n then None
          else if i = slot then sweep (i + 1)
          else
            match take t.deques.(i) with
            | Some _ as r -> r
            | None -> sweep (i + 1)
        in
        sweep 0

  let steal t ~slot ~rng = raid t ~slot ~rng ~take:Deque.steal

  (* The deque's own steal-half does the batching: one raid claims up
     to half the victim's run, lock-free ([spill] runs with no lock
     held by construction). *)
  let steal_batch t ~slot ~rng ~max ~spill =
    raid t ~slot ~rng ~take:(fun d -> Deque.steal_batch d ~max ~spill)

  let length t = Array.fold_left (fun acc d -> acc + Deque.length d) 0 t.deques
end

(* ------------------------------------------------------------------ *)
(* Mutex-protected FIFO pool, the building block of the two ported
   simulator schedulers. *)

module Lq = struct
  type 'a t = { m : Mutex.t; q : 'a Queue.t }

  let create () = { m = Mutex.create (); q = Queue.create () }

  let push t x =
    Mutex.lock t.m;
    Queue.add x t.q;
    Mutex.unlock t.m

  let pop t =
    Mutex.lock t.m;
    let r = Queue.take_opt t.q in
    Mutex.unlock t.m;
    r

  let length t =
    Mutex.lock t.m;
    let n = Queue.length t.q in
    Mutex.unlock t.m;
    n

  (* Batched pop: up to [max] items, capped at half the queue (the
     steal-half policy), in one lock hold.  Extras are *returned*
     (oldest first) rather than spilled under the lock, so the caller
     can re-push them on its own scheduler without holding this
     mutex — raiding workers spilling into each other while holding
     victim locks would otherwise form a lock cycle. *)
  let pop_batch t ~max =
    Mutex.lock t.m;
    let r = Queue.take_opt t.q in
    let extras =
      match r with
      | None -> []
      | Some _ ->
          let want =
            Stdlib.min (max - 1) ((Queue.length t.q + 1) / 2)
          in
          let rec take k acc =
            if k = 0 then List.rev acc
            else
              match Queue.take_opt t.q with
              | Some x -> take (k - 1) (x :: acc)
              | None -> List.rev acc
          in
          take want []
    in
    Mutex.unlock t.m;
    (r, extras)
end

(* Thread packing (port of lib/core/sched_packing.ml, Algorithm 1):
   each member owns a private FIFO pool; external work enters a shared
   pool; a member alternates private-first and shared-first phases per
   consultation so neither side starves.  Steals drain the shared pool
   before raiding a sibling's private pool. *)

module Packing : SCHEDULER = struct
  type t = {
    priv : task Lq.t array;
    shared : task Lq.t;
    (* Per-slot phase toggle; each cell is owner-written only. *)
    phase : bool array;
  }

  let name = "packing"

  let create ~slots =
    {
      priv = Array.init slots (fun _ -> Lq.create ());
      shared = Lq.create ();
      phase = Array.make slots false;
    }

  let push t ~slot ~prio:_ x =
    if slot >= 0 then Lq.push t.priv.(slot) x else Lq.push t.shared x

  (* FIFO pools: the back of the own pool is already behind all other
     local work, so a yield re-queue is a plain push. *)
  let push_front = push

  let pop t ~slot =
    let shared_first = t.phase.(slot) in
    t.phase.(slot) <- not shared_first;
    if shared_first then
      match Lq.pop t.shared with None -> Lq.pop t.priv.(slot) | r -> r
    else
      match Lq.pop t.priv.(slot) with None -> Lq.pop t.shared | r -> r

  let steal t ~slot ~rng =
    match Lq.pop t.shared with
    | Some _ as r -> r
    | None ->
        let n = Array.length t.priv in
        let start = rng () mod n in
        let rec sweep k =
          if k = n then None
          else
            let v = (start + k) mod n in
            if v = slot then sweep (k + 1)
            else
              match Lq.pop t.priv.(v) with
              | Some _ as r -> r
              | None -> sweep (k + 1)
        in
        sweep 0

  (* Batched raid: drain up to half of one pool — shared first, then a
     sibling's private pool — in a single lock hold, spilling the
     extras only after the victim mutex is released. *)
  let steal_batch t ~slot ~rng ~max ~spill =
    let finish (r, extras) =
      List.iter spill extras;
      r
    in
    match Lq.pop_batch t.shared ~max with
    | (Some _, _) as hit -> finish hit
    | None, _ ->
        let n = Array.length t.priv in
        let start = rng () mod n in
        let rec sweep k =
          if k = n then None
          else
            let v = (start + k) mod n in
            if v = slot then sweep (k + 1)
            else
              match Lq.pop_batch t.priv.(v) ~max with
              | (Some _, _) as hit -> finish hit
              | None, _ -> sweep (k + 1)
        in
        sweep 0

  let length t =
    Lq.length t.shared + Array.fold_left (fun a q -> a + Lq.length q) 0 t.priv
end

(* In-situ priority (port of lib/core/sched_priority.ml, §4.3):
   [prio <= 0] (simulation) enters a member's main FIFO and may be
   stolen; [prio > 0] (in-situ analysis) runs only when no main work is
   in reach and is never handed to a cross-sub-pool thief — analysis
   stays inside the sub-pool, where its data is.

   Analysis routing depends on who pushes.  A member's own analysis
   work ([slot >= 0]) enters its private aux LIFO.  An *external*
   analysis submission ([slot = -1]) enters a sub-pool-shared aux
   stack instead: a private aux is only ever drained by its owner, so
   parking an external task there would strand it whenever the wakeup
   (one signal to an arbitrary sleeper) lands on a different member —
   the shared stack is reachable from every member's steal path. *)

module Priority : SCHEDULER = struct
  type stack = { sm : Mutex.t; mutable items : task list }

  type t = {
    main : task Lq.t array;
    aux : stack array;
    shared_aux : stack;
    ext : int Atomic.t;
  }

  let name = "priority"

  let create ~slots =
    {
      main = Array.init slots (fun _ -> Lq.create ());
      aux = Array.init slots (fun _ -> { sm = Mutex.create (); items = [] });
      shared_aux = { sm = Mutex.create (); items = [] };
      ext = Atomic.make 0;
    }

  let aux_push s x =
    Mutex.lock s.sm;
    s.items <- x :: s.items;
    Mutex.unlock s.sm

  let aux_pop s =
    Mutex.lock s.sm;
    let r =
      match s.items with
      | [] -> None
      | x :: r ->
          s.items <- r;
          Some x
    in
    Mutex.unlock s.sm;
    r

  let aux_length s =
    Mutex.lock s.sm;
    let n = List.length s.items in
    Mutex.unlock s.sm;
    n

  let push t ~slot ~prio x =
    if prio > 0 then
      aux_push (if slot >= 0 then t.aux.(slot) else t.shared_aux) x
    else
      let h =
        if slot >= 0 then slot
        else Atomic.fetch_and_add t.ext 1 mod Array.length t.main
      in
      Lq.push t.main.(h) x

  (* Yield re-queue: main work goes to the back of its FIFO (behind
     local work); analysis work re-enters its LIFO, matching the
     simulator's on_yielded. *)
  let push_front = push

  let pop t ~slot = Lq.pop t.main.(slot)

  (* Aux only once no main work is reachable, and only for a member
     ([slot >= 0]): analysis never leaves the sub-pool.  Own LIFO
     first (its data is hot here), then the shared stack, so whichever
     member the pusher's single wakeup lands on can serve an external
     analysis submission. *)
  let aux_fallback t ~slot =
    if slot >= 0 then
      match aux_pop t.aux.(slot) with
      | Some _ as r -> r
      | None -> aux_pop t.shared_aux
    else None

  let steal t ~slot ~rng =
    let n = Array.length t.main in
    let start = rng () mod n in
    let rec sweep k =
      if k = n then None
      else
        let v = (start + k) mod n in
        if v = slot then sweep (k + 1)
        else
          match Lq.pop t.main.(v) with
          | Some _ as r -> r
          | None -> sweep (k + 1)
    in
    match sweep 0 with
    | Some _ as r -> r
    | None -> aux_fallback t ~slot

  (* Only main (simulation) FIFOs are batched; analysis work is taken
     one task at a time — batching a LIFO whose whole point is running
     where its data is would bulk-migrate it away.  Extras spill after
     the victim mutex is released (see [Lq.pop_batch]). *)
  let steal_batch t ~slot ~rng ~max ~spill =
    let n = Array.length t.main in
    let start = rng () mod n in
    let rec sweep k =
      if k = n then None
      else
        let v = (start + k) mod n in
        if v = slot then sweep (k + 1)
        else
          match Lq.pop_batch t.main.(v) ~max with
          | Some _ as r, extras ->
              List.iter spill extras;
              r
          | None, _ -> sweep (k + 1)
    in
    match sweep 0 with
    | Some _ as r -> r
    | None -> aux_fallback t ~slot

  let length t =
    Array.fold_left (fun a q -> a + Lq.length q) 0 t.main
    + Array.fold_left (fun a s -> a + aux_length s) 0 t.aux
    + aux_length t.shared_aux
end

(* ------------------------------------------------------------------ *)
(* First-class plumbing. *)

type t = (module SCHEDULER)

let ws : t = (module Ws)

let packing : t = (module Packing)

let priority : t = (module Priority)

let name (module S : SCHEDULER) = S.name

let builtin = [ ws; packing; priority ]

let of_name n = List.find_opt (fun s -> name s = n) builtin

(* A scheduler instantiated for one sub-pool: the state is closed over
   once at pool construction, so the runtime's hot path pays a single
   indirect call per operation instead of unpacking a first-class
   module. *)
type instance = {
  i_name : string;
  i_push : slot:int -> prio:int -> task -> unit;
  i_push_front : slot:int -> prio:int -> task -> unit;
  i_pop : slot:int -> task option;
  i_steal : slot:int -> rng:(unit -> int) -> task option;
  i_steal_batch :
    slot:int -> rng:(unit -> int) -> max:int -> spill:(task -> unit) -> task option;
  i_length : unit -> int;
}

let instantiate (module S : SCHEDULER) ~slots =
  if slots < 1 then invalid_arg "Scheduler.instantiate: slots < 1";
  let st = S.create ~slots in
  {
    i_name = S.name;
    i_push = (fun ~slot ~prio x -> S.push st ~slot ~prio x);
    i_push_front = (fun ~slot ~prio x -> S.push_front st ~slot ~prio x);
    i_pop = (fun ~slot -> S.pop st ~slot);
    i_steal = (fun ~slot ~rng -> S.steal st ~slot ~rng);
    i_steal_batch =
      (fun ~slot ~rng ~max ~spill -> S.steal_batch st ~slot ~rng ~max ~spill);
    i_length = (fun () -> S.length st);
  }
