(* The live view behind [repro top]: a display thread samples the
   pool's telemetry and stats at a configurable period (1 Hz default)
   and renders either an ANSI terminal table or one JSON object per
   tick (JSONL, for machines).  Frame construction is pure given the
   snapshot values, so the rendering is unit-testable without a live
   pool; only [attach] touches threads. *)

module Hist = Preempt_core.Metrics.Hist
module Tel = Preempt_core.Telemetry

type mode = Text | Jsonl

(* One worker row: the latest telemetry point plus rates derived by
   differencing against the point [spark_window] samples back. *)
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
  f_ts : float;  (* seconds since pool start (telemetry clock) *)
  f_rows : row list;  (* worker order *)
  f_subpools : Fiber.subpool_stats list;
  f_quantum_lo : float;
  f_quantum_hi : float;
  f_quantiles : (string * int * float * float) list;
      (* (class name, window samples, p50, p99) per telemetry channel *)
}

let spark_window = 32

let class_names = [| "short"; "long" |]

let channel_name ch =
  if ch >= 0 && ch < Array.length class_names then class_names.(ch)
  else Printf.sprintf "class%d" ch

(* ------------------------------------------------------------------ *)
(* Sampling a frame from a live pool. *)

let frame pool =
  let tel = Fiber.telemetry pool in
  let stats = Fiber.stats pool in
  let sub_of = Hashtbl.create 8 in
  List.iter
    (fun st ->
      List.iter
        (fun (wid, _) -> Hashtbl.replace sub_of wid st.Fiber.st_name)
        st.Fiber.st_quanta)
    stats;
  let n = Tel.n_workers tel in
  let ts = ref 0.0 in
  let rows =
    List.init n (fun w ->
        let series = Tel.series tel ~worker:w in
        let m = Array.length series in
        let last =
          if m = 0 then None
          else begin
            let p = series.(m - 1) in
            if p.Tel.p_ts > !ts then ts := p.Tel.p_ts;
            Some p
          end
        in
        let tail = Stdlib.min m spark_window in
        let spark =
          Array.init tail (fun k -> series.(m - tail + k).Tel.p_depth)
        in
        {
          t_worker = w;
          t_subpool =
            (match Hashtbl.find_opt sub_of w with Some s -> s | None -> "?");
          t_depth = (match last with Some p -> p.Tel.p_depth | None -> 0);
          t_steals_in = (match last with Some p -> p.Tel.p_steals_in | None -> 0);
          t_steals_out =
            (match last with Some p -> p.Tel.p_steals_out | None -> 0);
          t_parks = (match last with Some p -> p.Tel.p_parks | None -> 0);
          t_wakes = (match last with Some p -> p.Tel.p_wakes | None -> 0);
          t_quantum = (match last with Some p -> p.Tel.p_quantum | None -> 0.0);
          t_util = (match last with Some p -> p.Tel.p_util | None -> 0.0);
          t_spark = spark;
        })
  in
  let quanta =
    List.concat_map (fun st -> List.map snd st.Fiber.st_quanta) stats
  in
  let quantiles =
    List.init (Tel.channels tel) (fun ch ->
        let sk = Tel.channel_sketch tel ~channel:ch in
        let nn = Hist.count sk in
        ( channel_name ch,
          nn,
          (if nn = 0 then Float.nan else Hist.quantile sk 50.0),
          if nn = 0 then Float.nan else Hist.quantile sk 99.0 ))
  in
  {
    f_ts = !ts;
    f_rows = rows;
    f_subpools = stats;
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
           "sub-pool %-10s [%s] workers=%d pending=%d spawned=%d steals \
            local/in/out %d/%d/%d batched=%d\n"
           st.Fiber.st_name st.Fiber.st_sched st.Fiber.st_workers
           st.Fiber.st_pending st.Fiber.st_spawned st.Fiber.st_local_steals
           st.Fiber.st_overflow_in st.Fiber.st_overflow_out
           st.Fiber.st_batch_stolen))
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
             "{\"name\":%S,\"sched\":%S,\"workers\":%d,\"pending\":%d,\"spawned\":%d,\"local_steals\":%d,\"overflow_in\":%d,\"overflow_out\":%d,\"batch_stolen\":%d}"
             st.Fiber.st_name st.Fiber.st_sched st.Fiber.st_workers
             st.Fiber.st_pending st.Fiber.st_spawned st.Fiber.st_local_steals
             st.Fiber.st_overflow_in st.Fiber.st_overflow_out
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

let attach ?(period = 1.0) ?(out = stdout) ~mode pool =
  let stop = Atomic.make false in
  let tick () =
    let f = frame pool in
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
