(* The live view behind [repro top]: a display thread reads the pool's
   one counter set ([Fiber.worker_stats], [Fiber.stats]) at a
   configurable period (1 Hz default) and renders either an ANSI
   terminal table or one JSON object per tick (JSONL, for machines).
   Everything derived across ticks (utilization, the depth sparkline,
   per-class quantiles of the requests completed in between) is kept
   by the display thread itself, so the workers and the request fibers
   do no work for the view.  Frame construction is pure given the
   reads, so the rendering is unit-testable without a live pool; only
   [attach] touches threads. *)

module Hist = Preempt_core.Metrics.Hist

type mode = Text | Jsonl

type row = {
  t_worker : int;
  t_subpool : string;
  t_depth : int;
  t_steals_in : int;  (* cumulative *)
  t_steals_out : int;  (* cumulative, sub-pool level *)
  t_parks : int;  (* cumulative *)
  t_wakes : int;  (* cumulative *)
  t_quantum : float;  (* seconds *)
  t_util : float;  (* 0..1 *)
  t_spark : int array;  (* recent queue-depth series, oldest first *)
}

type frame = {
  f_ts : float;  (* seconds since pool start *)
  f_rows : row list;  (* worker order *)
  f_subpools : Fiber.subpool_stats list;
  f_quantum_lo : float;
  f_quantum_hi : float;
  f_quantiles : (string * int * float * float) list;
      (* (class name, requests completed since the previous frame, p50, p99) *)
}

let spark_window = 32

(* ------------------------------------------------------------------ *)
(* Frames from successive reads. *)

type history = {
  mutable h_ts : float;
  mutable h_idle : float array;  (* each worker's [ws_idle_s] at [h_ts] *)
  mutable h_spark : int array array;
}

let history () = { h_ts = 0.0; h_idle = [||]; h_spark = [||] }

let frame h ~ts workers subpools completed =
  let n = List.length workers in
  if Array.length h.h_idle <> n then begin
    h.h_idle <- Array.make n 0.0;
    h.h_spark <- Array.make n [||]
  end;
  let dt = ts -. h.h_ts in
  let rows =
    List.mapi
      (fun k (w : Fiber.worker_stats) ->
        let depth, out =
          match
            List.find_opt (fun st -> st.Fiber.st_name = w.Fiber.ws_subpool) subpools
          with
          | Some st -> (st.Fiber.st_pending, st.Fiber.st_overflow_out)
          | None -> (0, 0)
        in
        (* Share of the period spent unparked.  Both reads are racy, so
           the difference can leave [0, dt]; clamp it. *)
        let util =
          if dt <= 0.0 then 1.0
          else
            Float.min 1.0
              (Float.max 0.0 (1.0 -. ((w.Fiber.ws_idle_s -. h.h_idle.(k)) /. dt)))
        in
        h.h_idle.(k) <- w.Fiber.ws_idle_s;
        let prev = h.h_spark.(k) in
        let keep = Stdlib.min (Array.length prev) (spark_window - 1) in
        let spark =
          Array.append (Array.sub prev (Array.length prev - keep) keep) [| depth |]
        in
        h.h_spark.(k) <- spark;
        {
          t_worker = w.Fiber.ws_worker;
          t_subpool = w.Fiber.ws_subpool;
          t_depth = depth;
          t_steals_in = w.Fiber.ws_local_steals + w.Fiber.ws_overflow_in;
          t_steals_out = out;
          t_parks = w.Fiber.ws_parks;
          t_wakes = w.Fiber.ws_wakes;
          t_quantum = w.Fiber.ws_quantum;
          t_util = util;
          t_spark = spark;
        })
      workers
  in
  h.h_ts <- ts;
  let quanta = List.map (fun (w : Fiber.worker_stats) -> w.Fiber.ws_quantum) workers in
  let quantiles =
    List.map
      (fun cls ->
        let sk = Hist.create () in
        List.iter (fun (c, v) -> if c = cls then Hist.add sk v) completed;
        let nn = Hist.count sk in
        ( Serve.cls_name cls,
          nn,
          (if nn = 0 then Float.nan else Hist.quantile sk 50.0),
          if nn = 0 then Float.nan else Hist.quantile sk 99.0 ))
      [ Serve.Short; Serve.Long ]
  in
  {
    f_ts = ts;
    f_rows = rows;
    f_subpools = subpools;
    f_quantum_lo =
      List.fold_left Float.min Float.infinity
        (if quanta = [] then [ 0.0 ] else quanta);
    f_quantum_hi =
      List.fold_left Float.max Float.neg_infinity
        (if quanta = [] then [ 0.0 ] else quanta);
    f_quantiles = quantiles;
  }

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let spark_glyphs = [| " "; "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

(* Depths scale to the window's own maximum (a relative load shape,
   not an absolute scale); an all-zero window renders as blanks. *)
let sparkline depths =
  let hi = Array.fold_left Stdlib.max 0 depths in
  let buf = Buffer.create (Array.length depths * 3) in
  Array.iter
    (fun d ->
      let d = Stdlib.max 0 d in
      let i =
        if hi = 0 || d = 0 then 0
        else 1 + (d * (Array.length spark_glyphs - 2) / hi)
      in
      Buffer.add_string buf spark_glyphs.(Stdlib.min i (Array.length spark_glyphs - 1)))
    depths;
  Buffer.contents buf

let us v = v *. 1e6

let frame_to_string f =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "repro top — t=%.2fs  quanta %.0f..%.0f us\n" f.f_ts
       (us f.f_quantum_lo) (us f.f_quantum_hi));
  List.iter
    (fun (name, n, p50, p99) ->
      Buffer.add_string buf
        (if n = 0 then Printf.sprintf "  %-6s (no samples in window)\n" name
         else
           Printf.sprintf "  %-6s window n=%-6d p50 %9.1f us  p99 %9.1f us\n"
             name n (us p50) (us p99)))
    f.f_quantiles;
  List.iter
    (fun st ->
      Buffer.add_string buf
        (Printf.sprintf
           "sub-pool %-10s workers=%d pending=%d spawned=%d steals \
            local/in/out %d/%d/%d batched=%d\n"
           st.Fiber.st_name st.Fiber.st_workers st.Fiber.st_pending
           st.Fiber.st_spawned st.Fiber.st_local_steals st.Fiber.st_overflow_in
           st.Fiber.st_overflow_out st.Fiber.st_batch_stolen))
    f.f_subpools;
  Buffer.add_string buf
    "  wkr sub-pool   depth util%  parks wakes st-in st-out quantum  queue\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %3d %-10s %5d %4.0f%% %6d %5d %5d %6d %6.0fus %s\n" r.t_worker
           r.t_subpool r.t_depth (r.t_util *. 100.0) r.t_parks r.t_wakes
           r.t_steals_in r.t_steals_out (us r.t_quantum)
           (sparkline r.t_spark)))
    f.f_rows;
  Buffer.contents buf

let jf v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let frame_to_json f =
  let rows =
    String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             "{\"worker\":%d,\"subpool\":%S,\"depth\":%d,\"util\":%s,\"parks\":%d,\"wakes\":%d,\"steals_in\":%d,\"steals_out\":%d,\"quantum_s\":%s}"
             r.t_worker r.t_subpool r.t_depth (jf r.t_util) r.t_parks r.t_wakes
             r.t_steals_in r.t_steals_out (jf r.t_quantum))
         f.f_rows)
  in
  let pools =
    String.concat ","
      (List.map
         (fun st ->
           Printf.sprintf
             "{\"name\":%S,\"workers\":%d,\"pending\":%d,\"spawned\":%d,\"local_steals\":%d,\"overflow_in\":%d,\"overflow_out\":%d,\"batch_stolen\":%d}"
             st.Fiber.st_name st.Fiber.st_workers st.Fiber.st_pending
             st.Fiber.st_spawned st.Fiber.st_local_steals st.Fiber.st_overflow_in st.Fiber.st_overflow_out
             st.Fiber.st_batch_stolen)
         f.f_subpools)
  in
  let qs =
    String.concat ","
      (List.map
         (fun (name, n, p50, p99) ->
           Printf.sprintf "{\"class\":%S,\"n\":%d,\"p50_s\":%s,\"p99_s\":%s}"
             name n (jf p50) (jf p99))
         f.f_quantiles)
  in
  Printf.sprintf
    "{\"ts\":%s,\"quantum_lo_s\":%s,\"quantum_hi_s\":%s,\"classes\":[%s],\"subpools\":[%s],\"workers\":[%s]}"
    (jf f.f_ts) (jf f.f_quantum_lo) (jf f.f_quantum_hi) qs pools rows

(* ------------------------------------------------------------------ *)
(* The live thread. *)

let clear_screen = "\027[2J\027[H"

let attach ?(period = 1.0) ?(out = stdout) ~mode pool (rq : Serve.requests) =
  let stop = Atomic.make false in
  let origin = Fiber.clock_origin pool in
  let h = history () in
  let sched = rq.Serve.rq_schedule and soj = rq.Serve.rq_sojourn in
  let n = Array.length sched in
  (* Requests already counted, and the first one not yet counted.  A
     request completes only after it was due, and the injection starts
     after the pool's clock origin, so the scan stops at the first
     request due after [now]. *)
  let seen = Bytes.make n '\000' in
  let lo = ref 0 in
  let completed now =
    let acc = ref [] in
    let i = ref !lo in
    while !i < n && origin +. fst sched.(!i) <= now do
      if Bytes.get seen !i = '\000' then begin
        let v = soj.(!i) in
        if not (Float.is_nan v) then begin
          Bytes.set seen !i '\001';
          acc := (snd sched.(!i), v) :: !acc
        end
      end;
      incr i
    done;
    while !lo < n && Bytes.get seen !lo <> '\000' do
      incr lo
    done;
    !acc
  in
  let tick () =
    let now = Unix.gettimeofday () in
    let f =
      frame h ~ts:(now -. origin) (Fiber.worker_stats pool) (Fiber.stats pool)
        (completed now)
    in
    (match mode with
    | Text ->
        output_string out clear_screen;
        output_string out (frame_to_string f)
    | Jsonl ->
        output_string out (frame_to_json f);
        output_char out '\n');
    flush out
  in
  let t =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          tick ();
          (* Sleep in short slices so detach is prompt. *)
          let slices = Stdlib.max 1 (int_of_float (period /. 0.05)) in
          let rec nap k =
            if k > 0 && not (Atomic.get stop) then begin
              Thread.delay (period /. float_of_int slices);
              nap (k - 1)
            end
          in
          nap slices
        done)
      ()
  in
  fun () ->
    if not (Atomic.get stop) then begin
      Atomic.set stop true;
      Thread.join t;
      (* One final frame so short runs still show their end state. *)
      tick ()
    end
