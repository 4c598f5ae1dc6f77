(* Chrome trace_events exporter (see the "Trace Event Format" document
   published with the Chromium project).  Only the stable subset is
   emitted: X/i/C/M phases with ts in microseconds. *)

type arg = A_str of string | A_num of float

type event = {
  name : string;
  cat : string;
  ph : string;
  ts : float;
  dur : float option;
  pid : int;
  tid : int;
  args : (string * arg) list;
}

let us t = t *. 1e6

let metadata ~pid ~tid name label =
  {
    name;
    cat = "__metadata";
    ph = "M";
    ts = 0.0;
    dur = None;
    pid;
    tid;
    args = [ ("name", A_str label) ];
  }

let code_args (e : Preempt_core.Recorder.event) =
  [
    ("a", A_num (float_of_int e.Preempt_core.Recorder.e_a));
    ("b", A_num (float_of_int e.Preempt_core.Recorder.e_b));
  ]

(* ------------------------------------------------------------------ *)
(* Kernel lanes: one track per core showing which KLT held it (from the
   dispatch / block / preempt / exit events, via [Gantt]), an instant
   track for the scheduler's other events, and the metric counters. *)

let kernel_pid = 1

let kernel_instant c =
  let open Preempt_core.Recorder in
  c = ev_sig_deliver || c = ev_futex_wait || c = ev_futex_wake || c = ev_klt_preempt
  || c = ev_klt_exit || c = ev_klt_migrate || c = ev_newidle_pull || c = ev_balance_move

let kernel_events ?metrics (evs : Preempt_core.Recorder.event array) ~t_end push =
  let open Preempt_core in
  let gantt = Gantt.of_trace evs in
  let cores = Gantt.cores gantt in
  let any = ref false in
  let push e =
    any := true;
    push e
  in
  List.iter
    (fun (core, name, t0, t1) ->
      push
        {
          name;
          cat = "klt";
          ph = "X";
          ts = us t0;
          dur = Some (us (t1 -. t0));
          pid = kernel_pid;
          tid = core;
          args = [];
        })
    (Gantt.spans gantt ~t_end);
  Array.iter
    (fun (e : Recorder.event) ->
      if kernel_instant e.Recorder.e_code then
        push
          {
            name = Recorder.code_name e.Recorder.e_code;
            cat = "kernel";
            ph = "i";
            ts = us e.Recorder.e_ts;
            dur = None;
            pid = kernel_pid;
            tid = cores;
            args = code_args e;
          })
    evs;
  (* Metric counters: one "C" sample per worker at the end of the run
     (the runtime keeps totals, not time series). *)
  (match metrics with
  | None -> ()
  | Some (snap : Metrics.snapshot) ->
      Array.iteri
        (fun rank (c : Metrics.wcounters) ->
          push
            {
              name = Printf.sprintf "worker%d counters" rank;
              cat = "metrics";
              ph = "C";
              ts = us t_end;
              dur = None;
              pid = kernel_pid;
              tid = rank;
              args =
                [
                  ("preempts", A_num (float_of_int c.preempts));
                  ("signal_yields", A_num (float_of_int c.signal_yields));
                  ("klt_switches", A_num (float_of_int c.klt_switches));
                  ("pool_gets", A_num (float_of_int c.pool_gets));
                  ("pool_puts", A_num (float_of_int c.pool_puts));
                  ("steals", A_num (float_of_int c.steals));
                  ("timer_fires", A_num (float_of_int c.timer_fires));
                  ("io_restarts", A_num (float_of_int c.io_restarts));
                ];
            })
        snap.Metrics.s_workers);
  (* Track names, only when there is something to label. *)
  if !any then begin
    push (metadata ~pid:kernel_pid ~tid:0 "process_name" "preempt-sim");
    for c = 0 to cores - 1 do
      push (metadata ~pid:kernel_pid ~tid:c "thread_name" (Printf.sprintf "core%d" c))
    done;
    push (metadata ~pid:kernel_pid ~tid:cores "thread_name" "kernel events")
  end

(* ------------------------------------------------------------------ *)
(* ULT lanes: one per ULT showing its reconstructed lifecycle phases as
   complete events, plus an instant lane for the preemption machinery
   (timer fires, signal posts, preemption requests/completions,
   steals). *)

let flight_pid = 2

let flight_instant c =
  let open Preempt_core.Recorder in
  c = ev_sig_post || c = ev_preempt_req || c = ev_preempt_done || c = ev_timer_fire
  || c = ev_steal || c = ev_klt_remap || c = ev_pool_steal || c = ev_quantum_change

let ult_events (evs : Preempt_core.Recorder.event array) ~t_end push =
  let open Preempt_core in
  let lcs = Recorder.lifecycles evs in
  let max_uid = List.fold_left (fun acc lc -> max acc lc.Recorder.lc_uid) (-1) lcs in
  let instant_tid = max_uid + 1 in
  let any = ref false in
  let push e =
    any := true;
    push e
  in
  List.iter
    (fun (lc : Recorder.lifecycle) ->
      List.iter
        (fun (sp : Recorder.span) ->
          let t1 = if Float.is_nan sp.Recorder.s_to then t_end else sp.Recorder.s_to in
          if sp.Recorder.s_phase <> Recorder.P_finished && t1 >= sp.Recorder.s_from then
            push
              {
                name = Recorder.phase_name sp.Recorder.s_phase;
                cat = "ult";
                ph = "X";
                ts = us sp.Recorder.s_from;
                dur = Some (us (t1 -. sp.Recorder.s_from));
                pid = flight_pid;
                tid = lc.Recorder.lc_uid;
                args = [];
              })
        lc.Recorder.lc_spans)
    lcs;
  Array.iter
    (fun (e : Recorder.event) ->
      if flight_instant e.Recorder.e_code then
        push
          {
            name = Recorder.code_name e.Recorder.e_code;
            cat = "flight";
            ph = "i";
            ts = us e.Recorder.e_ts;
            dur = None;
            pid = flight_pid;
            tid = instant_tid;
            args = ("ring", A_num (float_of_int e.Recorder.e_ring)) :: code_args e;
          })
    evs;
  if !any then begin
    push (metadata ~pid:flight_pid ~tid:0 "process_name" "flight-recorder");
    List.iter
      (fun (lc : Recorder.lifecycle) ->
        push
          (metadata ~pid:flight_pid ~tid:lc.Recorder.lc_uid "thread_name"
             (Printf.sprintf "ult%d" lc.Recorder.lc_uid)))
      lcs;
    push (metadata ~pid:flight_pid ~tid:instant_tid "thread_name" "preemption events")
  end

(* Per-request lanes (serving-workload dumps): requests render as a
   separate Perfetto process, one lane per request id, with its span
   events ([ev_req_arrival] .. [ev_req_done]) reconstructed into
   queued / running / preempted slices. *)
let request_pid = 3

let request_events (evs : Preempt_core.Recorder.event array) ~t_end push =
  let open Preempt_core in
  let req_evs =
    Array.to_list evs
    |> List.filter (fun (e : Recorder.event) ->
           let c = e.Recorder.e_code in
           c >= Recorder.ev_req_arrival && c <= Recorder.ev_req_done)
    |> List.stable_sort (fun (a : Recorder.event) (b : Recorder.event) ->
           compare a.Recorder.e_ts b.Recorder.e_ts)
  in
  if req_evs <> [] then begin
    (* Walk each request's events in time order; slices open at a state
       change and close at the next (or at t_end when the tail of the
       span was lost to ring wraparound). *)
    let state = Hashtbl.create 64 in
    (* req -> (slice name, open ts) *)
    let ids = Hashtbl.create 64 in
    let close req t1 =
      match Hashtbl.find_opt state req with
      | Some (name, t0) when t1 >= t0 ->
          Hashtbl.remove state req;
          push
            {
              name;
              cat = "request";
              ph = "X";
              ts = us t0;
              dur = Some (us (t1 -. t0));
              pid = request_pid;
              tid = req;
              args = [];
            }
      | Some _ -> Hashtbl.remove state req
      | None -> ()
    in
    List.iter
      (fun (e : Recorder.event) ->
        let c = e.Recorder.e_code and req = e.Recorder.e_a in
        let ts = e.Recorder.e_ts in
        if not (Hashtbl.mem ids req) then Hashtbl.replace ids req e.Recorder.e_b;
        if c = Recorder.ev_req_arrival || c = Recorder.ev_req_enqueue then begin
          if not (Hashtbl.mem state req) then
            Hashtbl.replace state req ("queued", ts)
        end
        else if c = Recorder.ev_req_dispatch || c = Recorder.ev_req_resume
        then begin
          close req ts;
          Hashtbl.replace state req ("running", ts)
        end
        else if c = Recorder.ev_req_preempt then begin
          close req ts;
          Hashtbl.replace state req ("preempted", ts)
        end
        else if c = Recorder.ev_req_done then close req ts)
      req_evs;
    (* Slices still open lost their closing event to wraparound; extend
       them to the end of the record so the lane stays visible. *)
    Hashtbl.iter (fun req _ -> close req t_end) (Hashtbl.copy state);
    push (metadata ~pid:request_pid ~tid:0 "process_name" "requests");
    Hashtbl.iter
      (fun req _ ->
        push (metadata ~pid:request_pid ~tid:req "thread_name" (Printf.sprintf "req%d" req)))
      ids
  end

let of_flight ?metrics (evs : Preempt_core.Recorder.event array) =
  let t_end = Array.fold_left (fun acc e -> Float.max acc e.Preempt_core.Recorder.e_ts) 0.0 evs in
  let events = ref [] in
  let push e = events := e :: !events in
  kernel_events ?metrics evs ~t_end push;
  ult_events evs ~t_end push;
  request_events evs ~t_end push;
  List.rev !events

(* ------------------------------------------------------------------ *)
(* Serialization. *)

let escape buf s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_num buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" v)
  else Buffer.add_string buf (Printf.sprintf "%.6g" v)

let add_event buf e =
  Buffer.add_string buf "{\"name\":\"";
  escape buf e.name;
  Buffer.add_string buf "\",\"cat\":\"";
  escape buf e.cat;
  Buffer.add_string buf "\",\"ph\":\"";
  escape buf e.ph;
  Buffer.add_string buf "\",\"ts\":";
  add_num buf e.ts;
  (match e.dur with
  | Some d ->
      Buffer.add_string buf ",\"dur\":";
      add_num buf d
  | None -> ());
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" e.pid e.tid);
  if e.args <> [] then begin
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf "\":";
        match v with
        | A_num n -> add_num buf n
        | A_str s ->
            Buffer.add_char buf '"';
            escape buf s;
            Buffer.add_char buf '"')
      e.args;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}'

let to_json events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_event buf e)
    events;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let write ~path events =
  let oc = open_out path in
  output_string oc (to_json events);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser, used to validate the exporter's own output. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Fail of int * string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
              in
              (* Encode as UTF-8 (BMP only; good enough for validation). *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
          | _ -> fail "unknown escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok v
    with Fail (p, msg) -> Error (Printf.sprintf "%s at offset %d" msg p)

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

let validate s =
  match Json.parse s with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok root -> (
      match Json.member "traceEvents" root with
      | None -> Error "missing traceEvents"
      | Some (Json.Arr events) ->
          let check i ev =
            let want_num field =
              match Json.member field ev with
              | Some (Json.Num _) -> Ok ()
              | _ -> Error (Printf.sprintf "event %d: missing numeric %S" i field)
            in
            let want_str field =
              match Json.member field ev with
              | Some (Json.Str _) -> Ok ()
              | _ -> Error (Printf.sprintf "event %d: missing string %S" i field)
            in
            let ( let* ) r f = Result.bind r f in
            let* () = want_str "ph" in
            let* () = want_num "ts" in
            let* () = want_num "pid" in
            want_num "tid"
          in
          let rec go i = function
            | [] -> Ok (List.length events)
            | ev :: rest -> ( match check i ev with Ok () -> go (i + 1) rest | Error e -> Error e)
          in
          go 0 events
      | Some _ -> Error "traceEvents is not an array")
