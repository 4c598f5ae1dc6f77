(* Live telemetry: time-series sampling of per-worker scheduler state,
   plus sliding-window sojourn sketches fed from the serving workload.
   The write discipline matches [Recorder]: callers guard on [t.on]
   (one boolean load when disabled); an enabled sample is one plain
   store per field into preallocated per-worker rings — no allocation,
   no locks, no atomics.  Each ring has a single writer at a time: the
   runtime's sweep writes every [sample] field (the fiber runtime hands
   the sweep from worker to worker under an atomic token), and each
   worker owns its own window sketches through [observe].  Readers (the
   live view, tests) reconstruct series from [count mod capacity]
   exactly like [Recorder.ring_events]; a torn read can show a point
   mid-overwrite at the wrap boundary, which a 1 Hz display tolerates
   by construction. *)

type point = {
  p_seq : int;  (* sample index within the worker's series (monotone) *)
  p_ts : float;  (* seconds since the pool's epoch *)
  p_depth : int;  (* run-queue depth of the worker's sub-pool *)
  p_steals_in : int;  (* cumulative: work acquired by stealing *)
  p_steals_out : int;  (* cumulative: work stolen away from the sub-pool *)
  p_parks : int;  (* cumulative: times the worker parked on the condvar *)
  p_wakes : int;  (* cumulative: times the worker was woken after a park *)
  p_quantum : float;  (* current preemption quantum, seconds *)
  p_util : float;  (* fraction of the last sample period spent unparked *)
}

(* Structure-of-arrays ring per worker: one plain store per field on
   the sample path, no per-point allocation. *)
type wring = {
  w_ts : float array;
  w_depth : int array;
  w_sin : int array;
  w_sout : int array;
  w_parks : int array;
  w_wakes : int array;
  w_quantum : float array;
  w_util : float array;
  mutable w_count : int;  (* total samples ever written to this ring *)
}

let make_wring capacity =
  {
    w_ts = Array.make capacity 0.0;
    w_depth = Array.make capacity 0;
    w_sin = Array.make capacity 0;
    w_sout = Array.make capacity 0;
    w_parks = Array.make capacity 0;
    w_wakes = Array.make capacity 0;
    w_quantum = Array.make capacity 0.0;
    w_util = Array.make capacity 0.0;
    w_count = 0;
  }

(* ------------------------------------------------------------------ *)
(* Sliding-window quantile sketches: two-bucket rotation.  [add] goes
   to the current histogram; [rotate] retires the previous one and
   starts a fresh current; [sketch] merges previous + current
   (Hist.merge), so the sketch always covers between one and two
   rotation periods of samples — a rolling window without per-sample
   timestamps. *)

module Window = struct
  module Hist = Metrics.Hist

  type t = { mutable cur : Hist.t; mutable prev : Hist.t }

  let create () = { cur = Hist.create (); prev = Hist.create () }

  let add t v = Hist.add t.cur v

  let rotate t =
    let retired = t.prev in
    t.prev <- t.cur;
    Hist.clear retired;
    t.cur <- retired

  let sketch t = Hist.merge t.prev t.cur

  let count t = Hist.count t.cur + Hist.count t.prev
end

(* ------------------------------------------------------------------ *)

type t = {
  mutable on : bool;
  capacity : int;
  rings : wring array;  (* index = worker id *)
  windows : Window.t array array;  (* windows.(worker).(channel) *)
}

let create ~n_workers ~capacity ~channels =
  if n_workers <= 0 then invalid_arg "Telemetry.create: n_workers <= 0";
  if capacity <= 0 then invalid_arg "Telemetry.create: capacity <= 0";
  if channels < 0 then invalid_arg "Telemetry.create: channels < 0";
  {
    on = false;
    capacity;
    rings = Array.init n_workers (fun _ -> make_wring capacity);
    windows = Array.init n_workers (fun _ -> Array.init channels (fun _ -> Window.create ()));
  }

let enabled t = t.on

let set_enabled t b = t.on <- b

let capacity t = t.capacity

let n_workers t = Array.length t.rings

let channels t = if Array.length t.windows = 0 then 0 else Array.length t.windows.(0)

(* The sampler reads racy plain counters maintained by other threads;
   clamp transients here so a stored point never shows a negative
   count or an out-of-range utilization. *)
let sample t ~worker ~ts ~depth ~steals_in ~steals_out ~parks ~wakes ~quantum ~util =
  if t.on then begin
    let r = t.rings.(worker) in
    let i = r.w_count mod t.capacity in
    let clamp v = if v < 0 then 0 else v in
    r.w_ts.(i) <- ts;
    r.w_depth.(i) <- clamp depth;
    r.w_sin.(i) <- clamp steals_in;
    r.w_sout.(i) <- clamp steals_out;
    r.w_parks.(i) <- clamp parks;
    r.w_wakes.(i) <- clamp wakes;
    r.w_quantum.(i) <- quantum;
    r.w_util.(i) <- (if util < 0.0 then 0.0 else if util > 1.0 then 1.0 else util);
    r.w_count <- r.w_count + 1
  end

let total_samples t = Array.fold_left (fun acc r -> acc + r.w_count) 0 t.rings

let samples t ~worker = t.rings.(worker).w_count

let series t ~worker =
  let r = t.rings.(worker) in
  let kept = min r.w_count t.capacity in
  let first = r.w_count - kept in
  Array.init kept (fun k ->
      let seq = first + k in
      let i = seq mod t.capacity in
      {
        p_seq = seq;
        p_ts = r.w_ts.(i);
        p_depth = r.w_depth.(i);
        p_steals_in = r.w_sin.(i);
        p_steals_out = r.w_sout.(i);
        p_parks = r.w_parks.(i);
        p_wakes = r.w_wakes.(i);
        p_quantum = r.w_quantum.(i);
        p_util = r.w_util.(i);
      })

let latest t ~worker =
  let r = t.rings.(worker) in
  if r.w_count = 0 then None
  else
    let seq = r.w_count - 1 in
    let i = seq mod t.capacity in
    Some
      {
        p_seq = seq;
        p_ts = r.w_ts.(i);
        p_depth = r.w_depth.(i);
        p_steals_in = r.w_sin.(i);
        p_steals_out = r.w_sout.(i);
        p_parks = r.w_parks.(i);
        p_wakes = r.w_wakes.(i);
        p_quantum = r.w_quantum.(i);
        p_util = r.w_util.(i);
      }

let clear t =
  Array.iter (fun r -> r.w_count <- 0) t.rings;
  Array.iter
    (fun ws ->
      Array.iter
        (fun w ->
          Metrics.Hist.clear w.Window.cur;
          Metrics.Hist.clear w.Window.prev)
        ws)
    t.windows

(* ------------------------------------------------------------------ *)
(* Window feed.  [observe] is called from the owning worker only (its
   windows are single-writer); [rotate_windows] is called from the
   sweep, racing benignly with [observe] — a sample added during a
   rotation lands in either the retiring or the fresh histogram, both
   of which the next [sketch] covers. *)

let observe t ~worker ~channel v =
  if t.on then begin
    let ws = t.windows.(worker) in
    if channel >= 0 && channel < Array.length ws then Window.add ws.(channel) v
  end

let rotate_windows t =
  Array.iter (fun ws -> Array.iter Window.rotate ws) t.windows

(* Cross-worker rolling sketch for one channel: Hist.merge over every
   worker's window — the aggregation path Hist.merge exists for. *)
let channel_sketch t ~channel =
  let acc = ref (Metrics.Hist.create ()) in
  Array.iter
    (fun ws ->
      if channel >= 0 && channel < Array.length ws then
        acc := Metrics.Hist.merge !acc (Window.sketch ws.(channel)))
    t.windows;
  !acc
