(* The Chrome trace_events exporter: schema validity of a real export,
   an exact round-trip of a hand-built three-span Gantt, and the empty
   record.  All JSON checks go through the bundled parser, as a consumer
   of the files would. *)

open Desim
open Oskern
open Preempt_core
open Experiments

module CT = Chrome_trace
module J = Chrome_trace.Json

let num j = match j with J.Num f -> f | _ -> Alcotest.fail "expected number"
let str j = match j with J.Str s -> s | _ -> Alcotest.fail "expected string"

let events_of_json s =
  match J.parse s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      match J.member "traceEvents" j with
      | Some (J.Arr evs) -> evs
      | _ -> Alcotest.fail "no traceEvents array")

let field name ev =
  match J.member name ev with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" name

(* ------------------------------------------------------------------ *)

let ev seq ts code a b =
  { Recorder.e_ts = ts; e_ring = 1; e_seq = seq; e_code = code; e_a = a; e_b = b }

let test_roundtrip_gantt () =
  (* Two cores, three occupied spans:
       core0: klt0 from 1ms to its exit at 3ms, klt2 from 4ms to the
              end of the record
       core1: klt1 from 2ms to its block at 5ms (the last event) *)
  let evs =
    [|
      ev 0 1e-3 Recorder.ev_klt_dispatch 0 0;
      ev 1 2e-3 Recorder.ev_klt_dispatch 1 1;
      ev 2 3e-3 Recorder.ev_klt_exit 0 0;
      ev 3 4e-3 Recorder.ev_klt_dispatch 2 0;
      ev 4 5e-3 Recorder.ev_klt_block 1 0;
    |]
  in
  let events = CT.of_flight evs in
  let json = CT.to_json events in
  (match CT.validate json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "export rejected: %s" e);
  let xs =
    events_of_json json
    |> List.filter (fun ev -> str (field "ph" ev) = "X")
    |> List.map (fun ev ->
           Printf.sprintf "%s pid=%.0f tid=%.0f ts=%.1f dur=%.1f"
             (str (field "name" ev))
             (num (field "pid" ev))
             (num (field "tid" ev))
             (num (field "ts" ev))
             (num (field "dur" ev)))
    |> List.sort compare
  in
  (* Timestamps are microseconds in the file. *)
  Alcotest.(check (list string)) "spans survive the round trip"
    [
      "klt0 pid=1 tid=0 ts=1000.0 dur=2000.0";
      "klt1 pid=1 tid=1 ts=2000.0 dur=3000.0";
      "klt2 pid=1 tid=0 ts=4000.0 dur=1000.0";
    ]
    xs;
  (* The exit is a kernel instant on the lane above the two cores. *)
  let instants =
    events_of_json json
    |> List.filter (fun ev -> str (field "ph" ev) = "i")
    |> List.map (fun ev -> (str (field "name" ev), num (field "tid" ev)))
  in
  Alcotest.(check (list (pair string (float 0.0)))) "kernel instants" [ ("klt-exit", 2.0) ]
    instants

let test_empty_trace () =
  let events = CT.of_flight [||] in
  Alcotest.(check int) "no events" 0 (List.length events);
  let json = CT.to_json events in
  (match CT.validate json with
  | Ok n -> Alcotest.(check int) "valid, zero events" 0 n
  | Error e -> Alcotest.failf "empty export rejected: %s" e);
  match J.parse json with
  | Ok j -> (
      match J.member "traceEvents" j with
      | Some (J.Arr []) -> ()
      | _ -> Alcotest.fail "traceEvents is not the empty array")
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_real_export () =
  (* A preemptive 2-worker KLT-switching run with the recorder and
     metrics on; the export must pass the validator, contain every
     phase kind, and draw core lanes (pid 1, named by KLT id), ULT
     lanes (pid 2) and kernel instants. *)
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 2) in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval = 1e-3;
      metrics_enabled = true;
      recorder_enabled = true;
    }
  in
  let rt = Runtime.create ~config kernel ~n_workers:2 in
  for i = 0 to 3 do
    ignore
      (Runtime.spawn rt ~kind:Types.Klt_switching ~home:(i mod 2)
         ~name:(Printf.sprintf "t%d" i)
         (fun () -> Ult.compute 5e-3))
  done;
  Runtime.start rt;
  Engine.run ~until:1.0 eng;
  Alcotest.(check int) "record did not wrap" 0
    (Recorder.total_overwritten (Runtime.recorder rt));
  let events = CT.of_flight ~metrics:(Runtime.metrics rt) (Runtime.flight_events rt) in
  let json = CT.to_json events in
  (match CT.validate json with
  | Ok n ->
      Alcotest.(check int) "validator count agrees" (List.length events) n;
      Alcotest.(check bool) "nonempty" true (n > 0)
  | Error e -> Alcotest.failf "real export rejected: %s" e);
  let evs = events_of_json json in
  let phases = List.map (fun ev -> str (field "ph" ev)) evs in
  List.iter
    (fun ph ->
      Alcotest.(check bool) (Printf.sprintf "has %s events" ph) true
        (List.mem ph phases))
    [ "X"; "i"; "C"; "M" ];
  let has what p = Alcotest.(check bool) what true (List.exists p evs) in
  let is ph pid cat ev =
    str (field "ph" ev) = ph && num (field "pid" ev) = pid && str (field "cat" ev) = cat
  in
  has "core lanes at pid 1" (is "X" 1.0 "klt");
  has "core lanes named by KLT id" (fun ev ->
      is "X" 1.0 "klt" ev && String.starts_with ~prefix:"klt" (str (field "name" ev)));
  has "ULT lanes at pid 2" (is "X" 2.0 "ult");
  has "kernel instants at pid 1" (is "i" 1.0 "kernel");
  (* More KLTs than cores ran: each KLT switch hands the core to a
     pooled KLT. *)
  let klts =
    List.filter_map
      (fun ev -> if is "X" 1.0 "klt" ev then Some (str (field "name" ev)) else None)
      evs
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "KLT switches visible" true (List.length klts > 2);
  (* Every ts is finite and non-negative; X durs are non-negative. *)
  List.iter
    (fun ev ->
      let ts = num (field "ts" ev) in
      Alcotest.(check bool) "ts sane" true (Float.is_finite ts && ts >= 0.0);
      if str (field "ph" ev) = "X" then
        Alcotest.(check bool) "dur sane" true (num (field "dur" ev) >= 0.0))
    evs

let test_validator_rejects () =
  let bad =
    [
      ("not json", "nonsense");
      ("no traceEvents", {|{"foo": []}|});
      ("traceEvents not array", {|{"traceEvents": 3}|});
      ("event missing ph", {|{"traceEvents":[{"ts":1,"pid":1,"tid":0}]}|});
      ("event ts not number", {|{"traceEvents":[{"ph":"X","ts":"one","pid":1,"tid":0}]}|});
      ("trailing garbage", {|{"traceEvents":[]} extra|});
    ]
  in
  List.iter
    (fun (label, s) ->
      match CT.validate s with
      | Ok _ -> Alcotest.failf "%s: accepted" label
      | Error _ -> ())
    bad

let test_json_parser () =
  (* Escapes, nesting, numbers. *)
  (match J.parse {|{"a": [1, -2.5e3, true, null, "x\nA"], "b": {"c": ""}}|} with
  | Ok j -> (
      (match J.member "a" j with
      | Some (J.Arr [ J.Num 1.0; J.Num -2500.0; J.Bool true; J.Null; J.Str s ]) ->
          Alcotest.(check string) "escapes decoded" "x\nA" s
      | _ -> Alcotest.fail "array mismatch");
      match J.member "b" j with
      | Some inner -> (
          match J.member "c" inner with
          | Some (J.Str "") -> ()
          | _ -> Alcotest.fail "nested member")
      | None -> Alcotest.fail "missing b")
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match J.parse "[1," with
  | Ok _ -> Alcotest.fail "accepted truncated input"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "gantt round trip" `Quick test_roundtrip_gantt;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "real export validates" `Quick test_real_export;
    Alcotest.test_case "validator rejects malformed" `Quick test_validator_rejects;
    Alcotest.test_case "json parser" `Quick test_json_parser;
  ]
