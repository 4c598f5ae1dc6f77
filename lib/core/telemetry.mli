(** Live telemetry: fixed-capacity per-worker time-series rings of
    scheduler state, sampled by the runtime about every N preemption
    quanta, plus sliding-window sojourn quantile sketches fed by the
    serving workload.

    Where {!Metrics} is an end-of-run snapshot and {!Recorder} a
    post-mortem event log, this module is the {e online} view: the live
    top display ([repro top]) and any future adaptive policy (elastic
    workers, oversubscription response) read it while the pool runs.

    Overhead discipline matches the recorder exactly: every write path
    is guarded by one boolean load when disabled; an enabled {!sample}
    is one plain store per field into preallocated arrays — no
    allocation, locks or atomics.  Each per-worker ring has one writer
    at a time (the runtime's sweep); each worker's window sketches are
    written only by that worker ({!observe}).  Concurrent readers may see a torn
    point at the wrap boundary — acceptable for a display refreshed at
    1 Hz, and exact once the writer is quiescent. *)

(** One sample of a worker's state.  Counter fields are cumulative
    (since pool start), so rates are first differences between
    consecutive points. *)
type point = {
  p_seq : int;  (** sample index within the worker's series (monotone) *)
  p_ts : float;  (** seconds since the pool's epoch *)
  p_depth : int;  (** run-queue depth of the worker's sub-pool *)
  p_steals_in : int;  (** cumulative work acquired by stealing *)
  p_steals_out : int;  (** cumulative work stolen away from the sub-pool *)
  p_parks : int;  (** cumulative condvar parks *)
  p_wakes : int;  (** cumulative wakes after a park *)
  p_quantum : float;  (** current preemption quantum, seconds *)
  p_util : float;  (** fraction of the last sample period unparked, [0,1] *)
}

(** Sliding-window quantile sketch: two-histogram rotation.  {!add}
    feeds the current bucket; {!rotate} retires the previous one;
    {!sketch} is [Hist.merge previous current], so it always covers
    between one and two rotation periods — a rolling window with no
    per-sample timestamps and O(1) memory. *)
module Window : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit

  val rotate : t -> unit

  val sketch : t -> Metrics.Hist.t

  val count : t -> int
  (** Samples currently covered (current + previous). *)
end

type t

val create : n_workers:int -> capacity:int -> channels:int -> t
(** One ring of [capacity] points per worker, and [channels] window
    sketches per worker (e.g. one per service class), disabled.
    @raise Invalid_argument if [n_workers <= 0], [capacity <= 0] or
    [channels < 0]. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val capacity : t -> int

val n_workers : t -> int

val channels : t -> int

val sample :
  t ->
  worker:int ->
  ts:float ->
  depth:int ->
  steals_in:int ->
  steals_out:int ->
  parks:int ->
  wakes:int ->
  quantum:float ->
  util:float ->
  unit
(** Store one point in [worker]'s ring.  No-op while disabled (the
    runtime also checks {!enabled} first, so the disabled runtime pays
    one boolean load per quantum expiry).  Negative
    counter transients — the sampler reads racy plain counters — are
    clamped to 0, and [util] to [\[0,1\]], so stored points are always
    well-formed. *)

val total_samples : t -> int
(** Samples written over the telemetry's lifetime, all workers. *)

val samples : t -> worker:int -> int
(** Samples ever written to [worker]'s ring (not just retained). *)

val series : t -> worker:int -> point array
(** Retained points of one worker, oldest first.  After the ring wraps
    these are exactly the last [capacity] samples, with monotone
    [p_seq] starting at [samples - capacity]. *)

val latest : t -> worker:int -> point option

val clear : t -> unit
(** Drop all points and window samples (the enabled flag is
    unchanged). *)

(** {1 Sojourn windows} *)

val observe : t -> worker:int -> channel:int -> float -> unit
(** Add a sojourn sample to [worker]'s window for [channel].  Called
    by the workload on the worker that completed the request, so each
    window keeps a single writer.  No-op while disabled or for an
    out-of-range channel. *)

val rotate_windows : t -> unit
(** Rotate every window (sweep-driven, every few sample sweeps).
    Races benignly with {!observe}: a concurrent sample lands in one
    of the two histograms the next {!sketch} still covers. *)

val channel_sketch : t -> channel:int -> Metrics.Hist.t
(** Rolling cross-worker sketch for one channel:
    [Metrics.Hist.merge] over every worker's window. *)
