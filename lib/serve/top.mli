(** The live view behind [repro top]: a display thread reads a pool's
    one counter set ({!Fiber.worker_stats}, {!Fiber.stats}) at a fixed
    period (1 Hz default) and renders per-sub-pool worker tables with
    queue-depth sparklines, steal split, park/wake counts, the
    adaptive-quanta range, and p50/p99 per service class — either as
    an ANSI terminal redraw or as one JSON object per tick (JSONL, for
    machines).

    What needs two reads is derived by the display thread alone:
    utilization from the change in each worker's parked seconds, the
    sparkline from the depths of its own earlier frames, and the
    quantiles from the requests that completed since its previous
    frame, read from {!Serve.requests}.  The workers and the request
    fibers do no work for the view.

    Frame construction ({!frame}) and rendering ({!frame_to_string},
    {!frame_to_json}, {!sparkline}) are pure given the reads, so they
    are unit-tested without a live pool; only {!attach} touches
    threads.  Attach via [Serve.run ~on_pool:(Top.attach ~mode:...)]
    or [repro serve --top]. *)

type mode = Text | Jsonl

type row = {
  t_worker : int;
  t_subpool : string;
  t_depth : int;  (** run-queue depth of the worker's sub-pool *)
  t_steals_in : int;  (** cumulative *)
  t_steals_out : int;  (** cumulative, sub-pool level *)
  t_parks : int;  (** cumulative *)
  t_wakes : int;  (** cumulative *)
  t_quantum : float;  (** seconds *)
  t_util : float;  (** 0..1, share of the period since the previous frame spent unparked *)
  t_spark : int array;
      (** [t_depth] of the last 32 frames, oldest first *)
}

type frame = {
  f_ts : float;  (** time of the read, seconds since the pool was built *)
  f_rows : row list;  (** worker order *)
  f_subpools : Fiber.subpool_stats list;
  f_quantum_lo : float;
  f_quantum_hi : float;
  f_quantiles : (string * int * float * float) list;
      (** per service class: class name, requests completed since
          the previous frame, their p50 and p99 sojourn (NaN when none
          completed) *)
}

(** What the display thread carries from one frame to the next: the
    previous frame's time and each worker's parked seconds then, and
    each worker's depth history. *)
type history

(** A history with no earlier frame: the first {!frame} measures
    utilization from the pool's start ([ts = 0]). *)
val history : unit -> history

val frame :
  history ->
  ts:float ->
  Fiber.worker_stats list ->
  Fiber.subpool_stats list ->
  (Serve.cls * float) list ->
  frame
(** [frame h ~ts workers subpools completed] builds the next frame from
    one read of the counters taken [ts] seconds after the pool was
    built, and the [(class, sojourn)] of every request completed since
    the previous frame, then advances [h].  Utilization is clamped to
    [\[0,1\]], since the racy reads can make parked time run ahead of
    the clock or even backwards. *)

val sparkline : int array -> string
(** Depths as block glyphs, scaled to the window's own maximum; an
    all-zero window renders as blanks. *)

val frame_to_string : frame -> string
(** Multi-line terminal table (no ANSI escapes — {!attach} adds the
    clear-screen prefix). *)

val frame_to_json : frame -> string
(** One-line JSON object: [ts], quanta range, per-class quantiles,
    per-sub-pool counters, per-worker rows. *)

val attach :
  ?period:float ->
  ?out:out_channel ->
  mode:mode ->
  Fiber.pool ->
  Serve.requests ->
  unit ->
  unit
(** Start the display thread redrawing every [period] seconds (default
    1.0) and return the detach closure: it stops the thread, joins it,
    and emits one final frame (so short runs still show their end
    state).  Calling the closure twice is harmless.  Made to be passed
    as [Serve.run]'s [?on_pool]. *)
