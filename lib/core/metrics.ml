(* Runtime observability: per-worker counters + log-scale histograms.
   Shapes follow LibPreemptible's per-quantum accounting: fixed
   counters, percentiles recovered from fixed buckets rather than
   stored samples, so the cost is O(1) per event.  Everything except
   the pool and I/O-restart counters is folded from the runtime's event
   stream, the same events the flight recorder keeps. *)

module Hist = struct
  (* Buckets cover [1e-9, 1e2) seconds, 8 per decade, plus underflow and
     overflow.  The boundary table is the single source of truth;
     [bucket_of] is a binary search on it, so edge values bucket
     exactly (no log() rounding at the boundaries). *)

  let decade_lo = -9

  let decade_hi = 2

  let per_decade = 8

  let n_core = (decade_hi - decade_lo) * per_decade

  let n_buckets = n_core + 2

  let bounds =
    Array.init (n_core + 1) (fun i ->
        10.0 ** (float_of_int decade_lo +. (float_of_int i /. float_of_int per_decade)))

  let bucket_of v =
    if not (v >= bounds.(0)) then 0 (* negatives, NaN, < 1 ns *)
    else if v >= bounds.(n_core) then n_buckets - 1
    else begin
      (* Largest i with bounds.(i) <= v; invariant bounds.(lo) <= v < bounds.(hi). *)
      let lo = ref 0 and hi = ref n_core in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if bounds.(mid) <= v then lo := mid else hi := mid
      done;
      1 + !lo
    end

  let bucket_bounds b =
    if b < 0 || b >= n_buckets then invalid_arg "Metrics.Hist.bucket_bounds";
    if b = 0 then (neg_infinity, bounds.(0))
    else if b = n_buckets - 1 then (bounds.(n_core), infinity)
    else (bounds.(b - 1), bounds.(b))

  type t = { counts : int array; mutable n : int; mutable total : float }

  let create () = { counts = Array.make n_buckets 0; n = 0; total = 0.0 }

  let add t v =
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.total <- t.total +. v

  let count t = t.n

  let sum t = t.total

  let mean t = if t.n = 0 then 0.0 else t.total /. float_of_int t.n

  let bucket_count t b =
    if b < 0 || b >= n_buckets then invalid_arg "Metrics.Hist.bucket_count";
    t.counts.(b)

  let nonzero t =
    let rows = ref [] in
    for b = n_buckets - 1 downto 0 do
      if t.counts.(b) > 0 then
        let lo, hi = bucket_bounds b in
        rows := (lo, hi, t.counts.(b)) :: !rows
    done;
    Array.of_list !rows

  (* [quantile] interpolates inside the target bucket: the quantile
     rank's fractional position among the bucket's samples picks a point
     between the bucket edges on a log scale (matching the buckets'
     geometric spacing).  The open-ended buckets have no second edge, so
     they give their finite one. *)
  let quantile t p =
    if t.n = 0 then invalid_arg "Metrics.Hist.quantile: empty histogram";
    if p < 0.0 || p > 100.0 then invalid_arg "Metrics.Hist.quantile: p outside [0,100]";
    let target = Stdlib.max 1.0 (p /. 100.0 *. float_of_int t.n) in
    let rec go b acc =
      let here = t.counts.(b) in
      let acc' = float_of_int (acc + here) in
      if acc' >= target && here > 0 then
        if b = 0 then bounds.(0)
        else if b = n_buckets - 1 then bounds.(n_core)
        else begin
          let lo, hi = bucket_bounds b in
          let frac = (target -. float_of_int acc) /. float_of_int here in
          let frac = Float.min 1.0 (Float.max 0.0 frac) in
          lo *. ((hi /. lo) ** frac)
        end
      else go (b + 1) (acc + here)
    in
    go 0 0

  let copy t = { counts = Array.copy t.counts; n = t.n; total = t.total }

  (* Bucket-wise sum.  The bucket table is a compile-time constant, so
     two histograms built by this module always agree on shape; the
     length check guards histograms that crossed a dump/decode boundary
     (or a future table change) from silently mis-merging. *)
  let merge a b =
    if Array.length a.counts <> Array.length b.counts then
      invalid_arg "Metrics.Hist.merge: bucket shape mismatch";
    let counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i)) in
    { counts; n = a.n + b.n; total = a.total +. b.total }
end

type wcounters = {
  mutable preempts : int;
  mutable signal_yields : int;
  mutable klt_switches : int;
  mutable pool_gets : int;
  mutable pool_puts : int;
  mutable steals : int;
  mutable timer_fires : int;
  mutable io_restarts : int;
}

let zero_wcounters () =
  {
    preempts = 0;
    signal_yields = 0;
    klt_switches = 0;
    pool_gets = 0;
    pool_puts = 0;
    steals = 0;
    timer_fires = 0;
    io_restarts = 0;
  }

let copy_wcounters c = { c with preempts = c.preempts }

(* Everything a fold writes, allocated by the first enable, the way the
   recorder allocates its rings. *)
type live = {
  workers : wcounters array;
  mutable sync_blocks : int;
  mutable sync_wakeups : int;
  sig_to_switch : Hist.t;
  sched_delay : Hist.t;
  run_quantum : Hist.t;
  (* Start times by ULT uid, NaN when not seen: when the thread last
     became ready, and when its current run slice began. *)
  mutable ready_at : Itab.Float.t;
  mutable run_started : Itab.Float.t;
}

type t = { mutable on : bool; n_workers : int; mutable live : live option }

let fresh n_workers =
  {
    workers = Array.init n_workers (fun _ -> zero_wcounters ());
    sync_blocks = 0;
    sync_wakeups = 0;
    sig_to_switch = Hist.create ();
    sched_delay = Hist.create ();
    run_quantum = Hist.create ();
    ready_at = Itab.Float.create 64;
    run_started = Itab.Float.create 64;
  }

let create ~n_workers = { on = false; n_workers; live = None }

let enabled t = t.on

(* A wait or slice that began while metrics were off has no start time,
   so it takes no sample: an enable forgets the start times. *)
let set_enabled t b =
  if b && not t.on then begin
    match t.live with
    | None -> t.live <- Some (fresh t.n_workers)
    | Some l ->
        l.ready_at <- Itab.Float.create 64;
        l.run_started <- Itab.Float.create 64
  end;
  t.on <- b

(* A run slice of [uid] ends at [ts]. *)
let slice_end l uid ts =
  let t0 = Itab.Float.take l.run_started uid in
  if not (Float.is_nan t0) then Hist.add l.run_quantum (ts -. t0)

let fold t ~posted ring ts code a b =
  match t.live with
  | Some l when t.on ->
      if code = Recorder.ev_run || code = Recorder.ev_resume then begin
        let r = Itab.Float.take l.ready_at a in
        if not (Float.is_nan r) then Hist.add l.sched_delay (ts -. r);
        Itab.Float.set l.run_started a ts
      end
      else if code = Recorder.ev_preempt then begin
        let c = l.workers.(ring) in
        if b = 0 then c.signal_yields <- c.signal_yields + 1
        else c.klt_switches <- c.klt_switches + 1;
        slice_end l a ts;
        Itab.Float.set l.ready_at a ts
      end
      else if code = Recorder.ev_yield then begin
        slice_end l a ts;
        Itab.Float.set l.ready_at a ts
      end
      else if code = Recorder.ev_block then slice_end l a ts
      else if code = Recorder.ev_spawn || code = Recorder.ev_ready then
        Itab.Float.set l.ready_at a ts
      else if code = Recorder.ev_finish then begin
        ignore (Itab.Float.take l.ready_at a);
        ignore (Itab.Float.take l.run_started a)
      end
      else if code = Recorder.ev_preempt_req then begin
        let c = l.workers.(ring) in
        c.preempts <- c.preempts + 1
      end
      else if code = Recorder.ev_steal then begin
        let c = l.workers.(ring) in
        c.steals <- c.steals + 1
      end
      else if code = Recorder.ev_sig_post then begin
        if b = 0 then
          let c = l.workers.(ring) in
          c.timer_fires <- c.timer_fires + 1
      end
      else if code = Recorder.ev_preempt_done then
        Hist.add l.sig_to_switch (ts -. posted.(ring))
      else if code = Recorder.ev_sync_block then l.sync_blocks <- l.sync_blocks + 1
      else if code = Recorder.ev_sync_wake then l.sync_wakeups <- l.sync_wakeups + 1
  | Some _ | None -> ()

(* Facts with no event code, bumped directly. *)

let bump t r f =
  match t.live with Some l when t.on -> f l.workers.(r) | Some _ | None -> ()

let incr_pool_gets t r = bump t r (fun c -> c.pool_gets <- c.pool_gets + 1)

let incr_pool_puts t r = bump t r (fun c -> c.pool_puts <- c.pool_puts + 1)

let add_io_restarts t r n =
  if n > 0 then bump t r (fun c -> c.io_restarts <- c.io_restarts + n)

type snapshot = {
  s_workers : wcounters array;
  s_totals : wcounters;
  s_sync_blocks : int;
  s_sync_wakeups : int;
  s_sig_to_switch : Hist.t;
  s_sched_delay : Hist.t;
  s_run_quantum : Hist.t;
}

let snapshot t =
  let l = match t.live with Some l -> l | None -> fresh t.n_workers in
  let totals = zero_wcounters () in
  Array.iter
    (fun c ->
      totals.preempts <- totals.preempts + c.preempts;
      totals.signal_yields <- totals.signal_yields + c.signal_yields;
      totals.klt_switches <- totals.klt_switches + c.klt_switches;
      totals.pool_gets <- totals.pool_gets + c.pool_gets;
      totals.pool_puts <- totals.pool_puts + c.pool_puts;
      totals.steals <- totals.steals + c.steals;
      totals.timer_fires <- totals.timer_fires + c.timer_fires;
      totals.io_restarts <- totals.io_restarts + c.io_restarts)
    l.workers;
  {
    s_workers = Array.map copy_wcounters l.workers;
    s_totals = totals;
    s_sync_blocks = l.sync_blocks;
    s_sync_wakeups = l.sync_wakeups;
    s_sig_to_switch = Hist.copy l.sig_to_switch;
    s_sched_delay = Hist.copy l.sched_delay;
    s_run_quantum = Hist.copy l.run_quantum;
  }

let summary s =
  let buf = Buffer.create 1024 in
  let t = s.s_totals in
  Buffer.add_string buf
    (Printf.sprintf
       "metrics: %d preempts delivered, %d signal-yields, %d KLT switches\n\
       \         pool get/put %d/%d, %d steals, %d timer fires, %d io restarts\n\
       \         sync blocks/wakeups %d/%d\n"
       t.preempts t.signal_yields t.klt_switches t.pool_gets t.pool_puts t.steals
       t.timer_fires t.io_restarts s.s_sync_blocks s.s_sync_wakeups);
  Array.iteri
    (fun r c ->
      Buffer.add_string buf
        (Printf.sprintf
           "  worker%-3d preempts=%-5d sigyield=%-5d kltswitch=%-5d get/put=%d/%d \
            steals=%-5d timer=%-5d io-restarts=%d\n"
           r c.preempts c.signal_yields c.klt_switches c.pool_gets c.pool_puts c.steals
           c.timer_fires c.io_restarts))
    s.s_workers;
  let hist name h =
    match Hist.count h with
    | 0 -> Buffer.add_string buf (Printf.sprintf "  %-22s (no samples)\n" name)
    | n ->
        Buffer.add_string buf
          (Printf.sprintf
             "  %-22s n=%-6d mean=%8.2f us  p50=%8.2f us  p90=%8.2f us  p99=%8.2f us\n"
             name n (Hist.mean h *. 1e6)
             (Hist.quantile h 50.0 *. 1e6)
             (Hist.quantile h 90.0 *. 1e6)
             (Hist.quantile h 99.0 *. 1e6))
  in
  hist "signal->switch" s.s_sig_to_switch;
  hist "sched delay" s.s_sched_delay;
  hist "run quantum" s.s_run_quantum;
  Buffer.contents buf
