(* 4-ary min-heap in struct-of-arrays layout with O(1) lazy cancellation.

   Ordering is by (key, seq): ties on the float key break by insertion
   sequence number, so equal-key elements pop in insertion order.  That
   total order is what makes the simulation deterministic, and it is a
   property of the *element*, not of the heap layout — a 4-ary heap, a
   compacted heap and the old binary heap all pop the same sequence.

   Layout: the heap proper is three parallel position-indexed arrays
   (keys/seqs/slot).  [keys] is a flat float array and [seqs]/[slot]
   are int arrays, so the sift loops compare unboxed floats and move
   only unboxed words: no pointer store, hence no write barrier, per
   level.  An element's value and cancel handle live in [vals]/[hnds]
   at its slot, written once when it is pushed and never moved; the
   heap entry carries the slot.  A 4-ary shape halves tree depth versus
   binary, trading slightly wider sibling scans (which stay inside one
   or two cache lines) for fewer levels.

   Slots recycle through a free-slot stack kept in the tail of [slot]:
   [slot] is always a permutation of [0, capacity), positions below
   [size] hold the heap's entries and positions from [size] up hold the
   free slots, so a push takes [slot.(size)] and a removal parks the
   removed entry's slot at the position the heap just gave up.

   Cancellation is lazy: [cancel] just flips the handle's state and
   bumps a shared dead-entry counter — no heap traversal, no heap
   argument.  Tombstones are skipped when they surface at the root and
   bulk-compacted once they outnumber live entries. *)

(* state: 0 = pending (stored in some heap), 1 = popped, 2 = cancelled.
   [cell] is the owning heap's dead-entry counter, captured at push so
   cancel can account for the tombstone without a heap argument.  A
   handle belongs to one push, never to a slot, so a stale handle cannot
   reach the element that later reuses its slot. *)
type handle = { mutable state : int; cell : int ref }

(* Shared sentinel for plain (non-cancellable) pushes: no allocation per
   push, recognized by physical equality in pop/compact. *)
let no_handle = { state = 0; cell = ref 0 }

type 'a t = {
  mutable keys : float array; (* by heap position *)
  mutable seqs : int array; (* by heap position *)
  mutable slot : int array; (* by heap position; free slots from [size] up *)
  mutable vals : 'a array; (* by slot *)
  mutable hnds : handle array; (* by slot *)
  mutable size : int;
  mutable next_seq : int;
  dead : int ref;
}

let create () =
  {
    keys = [||];
    seqs = [||];
    slot = [||];
    vals = [||];
    hnds = [||];
    size = 0;
    next_seq = 0;
    dead = ref 0;
  }

let length h = h.size - !(h.dead)

let is_empty h = length h = 0

let cancel hn =
  if hn.state = 0 then begin
    hn.state <- 2;
    hn.cell := !(hn.cell) + 1;
    true
  end
  else false

let pending hn = hn.state = 0

let live hn = hn == no_handle || hn.state = 0

(* ------------------------------------------------------------------ *)
(* Sifting.  Hole-based: the moving entry sits in locals while
   parents/children shift, one write per array per level instead of a
   swap.  Only [keys]/[seqs]/[slot] move; none of them holds a pointer. *)

let sift_up h i0 =
  let keys = h.keys and seqs = h.seqs and slot = h.slot in
  let key = Array.unsafe_get keys i0 and seq = Array.unsafe_get seqs i0 in
  let s = Array.unsafe_get slot i0 in
  let i = ref i0 in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 4 in
    let pk = Array.unsafe_get keys p in
    if key < pk || (key = pk && seq < Array.unsafe_get seqs p) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slot !i (Array.unsafe_get slot p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slot !i s

let sift_down h i0 =
  let size = h.size in
  let keys = h.keys and seqs = h.seqs and slot = h.slot in
  let key = Array.unsafe_get keys i0 and seq = Array.unsafe_get seqs i0 in
  let s = Array.unsafe_get slot i0 in
  let i = ref i0 in
  let moving = ref true in
  while !moving do
    let c1 = (4 * !i) + 1 in
    if c1 >= size then moving := false
    else begin
      let m = ref c1 in
      let mk = ref (Array.unsafe_get keys c1) in
      let ms = ref (Array.unsafe_get seqs c1) in
      let last = if c1 + 3 < size then c1 + 3 else size - 1 in
      for c = c1 + 1 to last do
        let ck = Array.unsafe_get keys c in
        if ck < !mk || (ck = !mk && Array.unsafe_get seqs c < !ms) then begin
          m := c;
          mk := ck;
          ms := Array.unsafe_get seqs c
        end
      done;
      if !mk < key || (!mk = key && !ms < seq) then begin
        Array.unsafe_set keys !i !mk;
        Array.unsafe_set seqs !i !ms;
        Array.unsafe_set slot !i (Array.unsafe_get slot !m);
        i := !m
      end
      else moving := false
    end
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slot !i s

(* ------------------------------------------------------------------ *)
(* Storage. *)

(* Grow when every slot is taken ([size] = capacity, so the free stack
   is empty).  The new tail of [slot] is the identity: fresh slots. *)
let ensure_capacity h v =
  let cap = Array.length h.keys in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nkeys = Array.make ncap 0.0 in
    let nseqs = Array.make ncap 0 in
    let nslot = Array.init ncap Fun.id in
    (* The pushed value doubles as the fill element, so the generic
       array never needs a manufactured dummy. *)
    let nvals = Array.make ncap v in
    let nhnds = Array.make ncap no_handle in
    Array.blit h.keys 0 nkeys 0 cap;
    Array.blit h.seqs 0 nseqs 0 cap;
    Array.blit h.slot 0 nslot 0 cap;
    Array.blit h.vals 0 nvals 0 cap;
    Array.blit h.hnds 0 nhnds 0 cap;
    h.keys <- nkeys;
    h.seqs <- nseqs;
    h.slot <- nslot;
    h.vals <- nvals;
    h.hnds <- nhnds
  end

(* Drop every tombstone and re-heapify in place.  A kept entry swaps
   slots with the position it moves into, which holds a dropped entry's
   slot, so dropped slots end up on the free stack and [slot] stays a
   permutation.  Heapify permutes the layout but the pop order is fixed
   by the (key, seq) total order, so determinism is unaffected. *)
let compact h =
  let n = h.size in
  let keys = h.keys and seqs = h.seqs and slot = h.slot in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get slot i in
    if live (Array.unsafe_get h.hnds s) then begin
      if !j <> i then begin
        Array.unsafe_set keys !j (Array.unsafe_get keys i);
        Array.unsafe_set seqs !j (Array.unsafe_get seqs i);
        Array.unsafe_set slot i (Array.unsafe_get slot !j);
        Array.unsafe_set slot !j s
      end;
      incr j
    end
  done;
  h.size <- !j;
  h.dead := 0;
  if !j > 1 then
    for i = (!j - 2) / 4 downto 0 do
      sift_down h i
    done

let push_with h key v hn =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let dead = !(h.dead) in
  if dead > 64 && dead > h.size - dead then compact h;
  ensure_capacity h v;
  let i = h.size in
  h.size <- i + 1;
  let s = h.slot.(i) in
  h.vals.(s) <- v;
  h.hnds.(s) <- hn;
  h.keys.(i) <- key;
  h.seqs.(i) <- seq;
  sift_up h i

let push h key v = push_with h key v no_handle

let push_handle h key v =
  let hn = { state = 0; cell = h.dead } in
  push_with h key v hn;
  hn

(* ------------------------------------------------------------------ *)
(* Removal. *)

(* Remove the root: the last entry fills the hole and sifts down; the
   root's slot goes on the free stack at the position the heap gave up. *)
let remove_top h =
  let n = h.size - 1 in
  h.size <- n;
  let s = h.slot.(0) in
  if n > 0 then begin
    h.keys.(0) <- h.keys.(n);
    h.seqs.(0) <- h.seqs.(n);
    h.slot.(0) <- h.slot.(n);
    sift_down h 0
  end;
  h.slot.(n) <- s

(* Pop cancelled entries off the root until a live one (or nothing)
   surfaces.  Amortized O(log n) per cancelled event, same as the eager
   removal it replaces, but paid only when a tombstone reaches the top. *)
let rec prune_top h =
  if h.size > 0 then begin
    let hn = h.hnds.(h.slot.(0)) in
    if hn != no_handle && hn.state = 2 then begin
      h.dead := !(h.dead) - 1;
      remove_top h;
      prune_top h
    end
  end

let min_key h =
  prune_top h;
  if h.size = 0 then raise Not_found;
  h.keys.(0)

(* Mark the element at slot [s] popped and return its value.  The value
   stays in [vals] until the slot is reused: clearing it would spend a
   write barrier per pop, the cost this layout exists to avoid. *)
let take h s =
  let hn = h.hnds.(s) in
  if hn != no_handle then hn.state <- 1;
  h.vals.(s)

let pop h =
  prune_top h;
  if h.size = 0 then raise Not_found;
  let v = take h h.slot.(0) in
  remove_top h;
  v

(* ------------------------------------------------------------------ *)
(* Tie inspection — the engine's schedule-exploration hook.  These are
   O(size) scans; they are only called when a schedule controller is
   installed, never on the default dispatch path. *)

let last_seq h = h.next_seq - 1

let top_seq h =
  prune_top h;
  if h.size = 0 then raise Not_found;
  h.seqs.(0)

let is_tie h k i =
  Array.unsafe_get h.keys i = k && live (Array.unsafe_get h.hnds (Array.unsafe_get h.slot i))

let tie_seqs h =
  prune_top h;
  if h.size = 0 then [||]
  else begin
    let k = h.keys.(0) in
    let acc = ref [] in
    for i = h.size - 1 downto 0 do
      if is_tie h k i then acc := h.seqs.(i) :: !acc
    done;
    let a = Array.of_list !acc in
    Array.sort compare a;
    a
  end

let tie_count h =
  prune_top h;
  if h.size = 0 then 0
  else begin
    let k = h.keys.(0) in
    let n = ref 0 in
    for i = 0 to h.size - 1 do
      if is_tie h k i then incr n
    done;
    !n
  end

(* Remove the entry at position [idx], restoring the heap property for
   the last entry moved into its place: sift it up (tracking it by its
   unique seq), and only if it did not move, sift it down.  The removed
   entry's slot goes on the free stack, as in [remove_top]. *)
let remove_at h idx =
  let last = h.size - 1 in
  h.size <- last;
  let s = h.slot.(idx) in
  if idx < last then begin
    h.keys.(idx) <- h.keys.(last);
    h.seqs.(idx) <- h.seqs.(last);
    h.slot.(idx) <- h.slot.(last);
    let seq = h.seqs.(idx) in
    sift_up h idx;
    if h.seqs.(idx) = seq then sift_down h idx
  end;
  h.slot.(last) <- s

let pop_tie h j =
  prune_top h;
  if h.size = 0 then raise Not_found;
  if j = 0 then pop h
  else begin
    let k = h.keys.(0) in
    let idxs = ref [] in
    for i = h.size - 1 downto 0 do
      if is_tie h k i then idxs := i :: !idxs
    done;
    let idxs = List.sort (fun a b -> compare h.seqs.(a) h.seqs.(b)) !idxs in
    match List.nth_opt idxs j with
    | None -> invalid_arg (Printf.sprintf "Heap.pop_tie: index %d of %d ties" j (List.length idxs))
    | Some idx ->
        let v = take h h.slot.(idx) in
        remove_at h idx;
        v
  end
