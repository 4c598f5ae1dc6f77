(** 4-ary array min-heap with stable ordering and O(1) lazy cancellation.

    Elements are ordered by a [float] key; ties are broken by insertion
    sequence number, so two elements with equal keys pop in insertion
    order.  This stability is what makes the simulation deterministic:
    the pop sequence is fixed by the [(key, seq)] total order regardless
    of the heap's internal layout.

    The heap proper is three parallel arrays of unboxed words (float
    keys, int seqs, int slots), so the hot sift loops compare unboxed
    floats and store no pointer.  Each element's value and cancel handle
    are written once per push into arrays indexed by its slot, which is
    recycled after the element leaves the heap.  Cancellation marks a
    tombstone in O(1) and dead entries are skipped at the root or
    bulk-compacted once they outnumber live ones. *)

type 'a t

(** A cancellation handle for one pushed element.  Handles are
    self-contained: cancelling needs no reference to the heap. *)
type handle

val create : unit -> 'a t

(** Live elements (pushed, not yet popped or cancelled). *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push h key v] inserts [v] with priority [key].  Allocates no
    handle: use for elements that are never cancelled. *)
val push : 'a t -> float -> 'a -> unit

(** [push_handle h key v] inserts [v] and returns a handle that can
    cancel it later. *)
val push_handle : 'a t -> float -> 'a -> handle

(** [cancel hn] marks the element as a tombstone in O(1) — no heap
    traversal.  Returns [true] on the first call while the element is
    still pending, [false] if it was already popped or cancelled. *)
val cancel : handle -> bool

(** [pending hn] is [true] until the element is popped or cancelled. *)
val pending : handle -> bool

(** [min_key h] returns the minimum live key without allocating.
    @raise Not_found if the heap has no live element. *)
val min_key : 'a t -> float

(** [pop h] removes and returns the minimum live element's value.
    @raise Not_found if the heap has no live element. *)
val pop : 'a t -> 'a

(** [tie_count h] is the number of live elements whose key equals the
    minimum key (0 on an empty heap).  O(size) scan — intended for the
    schedule-exploration path, not the default dispatch loop. *)
val tie_count : 'a t -> int

(** Sequence number assigned to the most recent {!push} — a stable
    identity for the element across its heap lifetime (the engine's
    event id during schedule exploration).  [-1] before any push. *)
val last_seq : 'a t -> int

(** Sequence number of the minimum live element (the one {!pop} would
    remove).  @raise Not_found if the heap has no live element. *)
val top_seq : 'a t -> int

(** [tie_seqs h] lists the sequence numbers of the live minimum-key
    elements in insertion order, so [tie_seqs h].(j) identifies the
    element [pop_tie h j] would remove.  O(size) scan, exploration
    path only.  [[||]] on an empty heap. *)
val tie_seqs : 'a t -> int array

(** [pop_tie h j] removes and returns the [j]-th (in insertion order,
    0-based) of the live minimum-key elements.  [pop_tie h 0] is {!pop}.
    @raise Not_found on an empty heap.
    @raise Invalid_argument if [j] is not below {!tie_count}. *)
val pop_tie : 'a t -> int -> 'a
