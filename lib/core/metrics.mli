(** First-class runtime observability: per-worker event counters and
    fixed-bucket log-scale latency histograms.

    Off by default.  The runtime sends each of its events through one
    emit, behind one boolean guard, which writes the flight recorder's
    ring ({!Recorder}) and calls {!fold} here; every counter and
    histogram except [pool_gets], [pool_puts] and [io_restarts] (facts
    with no event code, bumped directly) is derived from those events.
    State is allocated by the first enable.  Enable at construction
    time via [Config.metrics_enabled] or at any point with
    {!Runtime.set_metrics_enabled}; read results with {!Runtime.metrics}
    (a {!snapshot}).

    See [docs/observability.md] for the full metric catalogue and the
    events each metric folds. *)

module Hist : sig
  (** Fixed-bucket log-scale histogram of durations in seconds.

      Buckets cover [\[1e-9, 1e2)] with 8 buckets per decade, plus an
      underflow bucket (index 0, everything below 1 ns — including
      negatives and non-finite values) and an overflow bucket (the last
      index).  The boundaries are a fixed table, so histograms from
      different runs are comparable bucket-for-bucket and bucketing is
      exact at the edges (no log rounding). *)

  type t

  val create : unit -> t

  (** Total number of buckets, underflow and overflow included. *)
  val n_buckets : int

  (** [bucket_of v] is the index of the bucket that [add] would count
      [v] in: 0 for underflow, [n_buckets - 1] for overflow, otherwise
      the unique [b] such that [lo <= v < hi] where
      [(lo, hi) = bucket_bounds b].  Decided by binary search on the
      boundary table, so a value exactly equal to a bucket's lower edge
      lands in that bucket. *)
  val bucket_of : float -> int

  (** Bounds of bucket [b] as [(lo, hi)], with [lo] inclusive and [hi]
      exclusive.  The underflow bucket reports [(neg_infinity, 1e-9)]
      and the overflow bucket [(hi_last, infinity)].
      @raise Invalid_argument if [b] is out of range. *)
  val bucket_bounds : int -> float * float

  val add : t -> float -> unit

  val count : t -> int

  (** Exact sum of all added values (not reconstructed from buckets). *)
  val sum : t -> float

  (** [sum /. count]; 0 when empty. *)
  val mean : t -> float

  (** [bucket_count t b] — samples recorded in bucket [b]. *)
  val bucket_count : t -> int -> int

  (** Non-empty buckets as [(lo, hi, count)] rows, index-ascending. *)
  val nonzero : t -> (float * float * int) array

  (** [quantile t p] with [p] in [\[0, 100\]]: the [p]-th percentile,
      interpolated inside the bucket that holds its rank.  The rank's
      fractional position among the bucket's samples picks a point
      between the bucket edges on a log scale (matching the geometric
      bucket spacing), so estimates move smoothly with [p] instead of
      jumping per bucket.  The open-ended underflow/overflow buckets
      give their finite edge.  @raise Invalid_argument on an empty
      histogram or [p] outside [\[0, 100\]]. *)
  val quantile : t -> float -> float

  (** [merge a b] — a fresh histogram whose every bucket holds
      [bucket_count a i + bucket_count b i], with summed [count] and
      [sum].  Neither input is modified.  Because the bucket table is
      fixed, quantiles of the merge are exactly the quantiles of the
      pooled sample stream — this is the supported way to aggregate
      per-worker or per-class histograms.
      @raise Invalid_argument if the two histograms disagree on bucket
      shape. *)
  val merge : t -> t -> t
end

(** Per-worker event counters; read them through {!snapshot}, which
    deep-copies. *)
type wcounters = {
  mutable preempts : int;
      (** preemption-signal deliveries that hit (and flagged) a
          preemptive thread on this worker *)
  mutable signal_yields : int;  (** signal-yield preemptions taken *)
  mutable klt_switches : int;  (** KLT-switching suspends taken *)
  mutable pool_gets : int;
      (** replacement KLTs acquired from the local or global pool *)
  mutable pool_puts : int;  (** KLTs returned to a pool *)
  mutable steals : int;
      (** ready threads acquired from another worker's pool *)
  mutable timer_fires : int;
      (** preemption-timer expiries that targeted this worker *)
  mutable io_restarts : int;
      (** SA_RESTART resumptions of blocking I/O after a signal *)
}

type t

val create : n_workers:int -> t

val enabled : t -> bool

(** Turning metrics on allocates their state the first time, and each
    time forgets the start times of waits and run slices that began
    while they were off, so those take no sample. *)
val set_enabled : t -> bool -> unit

(** [fold t ~posted ring ts code a b] folds one runtime event (a
    {!Recorder} code with its ring and arguments) into the counters and
    histograms; a no-op while disabled.  [posted.(rank)] is the post
    time of the preemption signal being measured on worker [rank]: the
    signal-to-switch sample of an [ev_preempt_done] is [ts -. posted.(ring)]. *)
val fold : t -> posted:float array -> int -> float -> int -> int -> int -> unit

(** {1 Direct counters}

    For the facts with no event code; no-ops while disabled. *)

val incr_pool_gets : t -> int -> unit

val incr_pool_puts : t -> int -> unit

(** [add_io_restarts t rank n] *)
val add_io_restarts : t -> int -> int -> unit

(** {1 Snapshots} *)

type snapshot = {
  s_workers : wcounters array;  (** deep copies, one per worker *)
  s_totals : wcounters;  (** field-wise sums over all workers *)
  s_sync_blocks : int;
      (** ULTs that blocked on a [Usync] primitive (contended mutex,
          barrier wait, empty channel/ivar, join) *)
  s_sync_wakeups : int;
      (** ULTs readied by such a primitive (handoff, release,
          broadcast) *)
  s_sig_to_switch : Hist.t;
      (** preemption-signal post -> next thread running on the worker
          (the paper's Table 1 metric, as a distribution) *)
  s_sched_delay : Hist.t;  (** thread became ready -> thread running *)
  s_run_quantum : Hist.t;
      (** length of a run slice ended by preemption, yield or block *)
}

(** Immutable deep copy of the current state.  Snapshots taken at the
    same point of two identical seeded runs compare equal with [(=)]. *)
val snapshot : t -> snapshot

(** Human-readable multi-line report: totals, per-worker counters, and
    count/mean plus interpolated p50/p90/p99 ({!Hist.quantile}) for each
    histogram. *)
val summary : snapshot -> string
