(* The run queues of one sub-pool: Chase–Lev work stealing, one deque
   per member (lock-free, LIFO owner end, FIFO thief end).

   Members are addressed by *slot* — the member's index within the
   sub-pool, not its global worker id.  Callers outside the sub-pool
   (targeted spawns, cross-sub-pool wakes, overflow thieves) pass
   [slot = -1], and every operation that takes it is safe from any
   domain.  External pushes cannot enter a Chase–Lev ring (the owner
   end admits a single producer), so they land in the front segment of
   a round-robin-chosen deque, where both the member and any thief will
   find them. *)

type 'a t = { deques : 'a Deque.t array; ext : int Atomic.t }

let create ~slots =
  if slots < 1 then invalid_arg "Scheduler.create: slots < 1";
  { deques = Array.init slots (fun _ -> Deque.create ()); ext = Atomic.make 0 }

let ext_slot t = Atomic.fetch_and_add t.ext 1 mod Array.length t.deques

let push t ~slot x =
  if slot >= 0 then Deque.push t.deques.(slot) x
  else Deque.push_front t.deques.(ext_slot t) x

let push_front t ~slot x =
  Deque.push_front t.deques.(if slot >= 0 then slot else ext_slot t) x

let pop t ~slot = Deque.pop t.deques.(slot)

(* The owner end is LIFO and only the owner pushes there, so putting a
   non-matching task straight back restores the exact order.  A task
   [pop] drew from the front segment (the ring was empty) lands in the
   ring instead; with the ring empty that is the same place in both
   the owner's and the thieves' order.  The match itself was claimed
   by [pop], which a thief's steal cannot also win. *)
let take t ~slot x =
  let d = t.deques.(slot) in
  match Deque.pop d with
  | Some y when y == x -> true
  | Some y ->
      Deque.push d y;
      false
  | None -> false

(* Random probes first (contention spread), then a deterministic
   sweep so no runnable task can be missed by an idle member.
   [claim] is the per-victim raid (single steal or a batched one). *)
let raid t ~slot ~rng ~claim =
  let n = Array.length t.deques in
  let rec probe k =
    if k = 0 then None
    else
      let v = rng () mod n in
      if v = slot then probe (k - 1)
      else
        match claim t.deques.(v) with
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
          match claim t.deques.(i) with
          | Some _ as r -> r
          | None -> sweep (i + 1)
      in
      sweep 0

(* The deque's own steal-half does the batching: one raid claims up
   to half the victim's run, lock-free. *)
let steal_batch t ~slot ~rng ~max ~spill =
  raid t ~slot ~rng ~claim:(fun d -> Deque.steal_batch d ~max ~spill)

let length t = Array.fold_left (fun acc d -> acc + Deque.length d) 0 t.deques
