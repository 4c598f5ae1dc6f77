(* The live view behind [repro top] (lib/serve/top.ml): the pure
   rendering half, frames derived from successive counter reads, and
   the display thread over a short serving run. *)

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Top.sparkline [||]);
  Alcotest.(check string) "all zero is blank" "   " (Top.sparkline [| 0; 0; 0 |]);
  let s = Top.sparkline [| 0; 1; 8 |] in
  Alcotest.(check bool) "max renders full block" true
    (Astring_contains.contains s "█");
  (* Rendering is scale-relative: doubling every depth is invisible. *)
  Alcotest.(check string) "scale invariant"
    (Top.sparkline [| 1; 2; 4 |])
    (Top.sparkline [| 2; 4; 8 |])

let worker ~idle =
  {
    Fiber.ws_worker = 0;
    ws_subpool = "default";
    ws_spawned = 0;
    ws_local_steals = 2;
    ws_overflow_in = 1;
    ws_inline_joins = 0;
    ws_batch_stolen = 0;
    ws_parks = 10;
    ws_wakes = 9;
    ws_idle_s = idle;
    ws_quantum = 2e-3;
    ws_preempts = 0;
  }

let util f =
  match f.Top.f_rows with
  | [ r ] -> r.Top.t_util
  | _ -> Alcotest.fail "expected one worker row"

let check_util name expected f =
  let u = util f in
  Alcotest.(check bool) (name ^ ": util within [0,1]") true (u >= 0.0 && u <= 1.0);
  Alcotest.(check (float 1e-9)) name expected u

let test_frame_to_json_shape () =
  (* Utilization is the display thread's own difference of parked
     seconds between frames; racy reads can make it run backwards or
     ahead of the clock, and the frame clamps both. *)
  let h = Top.history () in
  let f1 = Top.frame h ~ts:1.0 [ worker ~idle:0.5 ] [] [] in
  check_util "half the first second parked" 0.5 f1;
  let f2 = Top.frame h ~ts:2.0 [ worker ~idle:0.2 ] [] [] in
  check_util "idle_s going backwards" 1.0 f2;
  let f3 = Top.frame h ~ts:2.5 [ worker ~idle:5.0 ] [] [] in
  check_util "idle_s running ahead of the clock" 0.0 f3;
  let f4 = Top.frame h ~ts:2.5 [ worker ~idle:5.0 ] [] [] in
  check_util "no time elapsed" 1.0 f4;
  (match f4.Top.f_rows with
  | [ r ] ->
      Alcotest.(check int) "steals in = local + overflow" 3 r.Top.t_steals_in;
      Alcotest.(check int) "depth history, one per frame" 4
        (Array.length r.Top.t_spark)
  | _ -> Alcotest.fail "expected one worker row");
  (* Quantiles cover the requests completed since the previous frame. *)
  let f5 =
    Top.frame h ~ts:3.0 [ worker ~idle:5.0 ] []
      [ (Serve.Short, 1e-3); (Serve.Short, 1e-3); (Serve.Long, 4e-3) ]
  in
  (match f5.Top.f_quantiles with
  | [ ("short", 2, short50, _); ("long", 1, long50, _) ] ->
      Alcotest.(check bool) "each class its own quantiles" true
        (short50 > 0.0 && short50 < long50)
  | _ -> Alcotest.fail "expected short n=2 and long n=1");
  let frame = Top.frame h ~ts:4.0 [ worker ~idle:5.5 ] [] [] in
  check_util "half the last second parked" 0.5 frame;
  let j = Top.frame_to_json frame in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " present") true
        (Astring_contains.contains j sub))
    [
      "\"ts\":4";
      "\"quantum_lo_s\":0.002";
      "\"quantum_hi_s\":0.002";
      "\"classes\":[";
      "\"class\":\"short\"";
      "\"n\":0";
      (* No request in the period serializes as null, not NaN (invalid
         JSON). *)
      "\"p50_s\":null";
      "\"p99_s\":null";
      "\"subpools\":[";
      "\"workers\":[";
      "\"worker\":0";
      "\"subpool\":\"default\"";
      "\"depth\":0";
      "\"util\":0.5";
      "\"parks\":10";
      "\"wakes\":9";
      "\"steals_in\":3";
      "\"steals_out\":0";
      "\"quantum_s\":0.002";
    ];
  Alcotest.(check bool) "no bare nan leaks" false
    (Astring_contains.contains j "nan");
  let t = Top.frame_to_string frame in
  Alcotest.(check bool) "text view mentions the worker table" true
    (Astring_contains.contains t "wkr")

(* The display thread over a real run: every frame is well formed, and
   once requests have completed they show up in the class counts. *)
let test_live_frames () =
  let path = Filename.temp_file "top_live" ".jsonl" in
  let oc = open_out path in
  let cfg =
    { Serve.default with Serve.rate = 2000.0; duration = 0.3; domains = 2 }
  in
  let rep =
    Serve.run
      ~on_pool:(fun pool rq -> Top.attach ~period:0.1 ~out:oc ~mode:Top.Jsonl pool rq)
      cfg
  in
  close_out oc;
  let ic = open_in path in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  Sys.remove path;
  let frames = List.filter (fun l -> l <> "") lines in
  if List.length frames < 2 then
    Alcotest.failf "%d frame(s) for a 0.3 s run at 0.1 s" (List.length frames);
  List.iter
    (fun l ->
      List.iter
        (fun k ->
          if not (Astring_contains.contains l k) then
            Alcotest.failf "frame lacks %s: %s" k l)
        [ "\"ts\":"; "\"classes\":["; "\"subpools\":["; "\"workers\":[" ])
    frames;
  (* Every completed request is counted in exactly one frame. *)
  let key = "\"n\":" in
  let counted = ref 0 in
  List.iter
    (fun l ->
      let len = String.length l in
      let rec scan i =
        if i + String.length key <= len then
          if String.sub l i (String.length key) = key then begin
            let j = i + String.length key in
            let k = ref j in
            while !k < len && l.[!k] >= '0' && l.[!k] <= '9' do
              incr k
            done;
            counted := !counted + int_of_string (String.sub l j (!k - j));
            scan !k
          end
          else scan (i + 1)
      in
      scan 0)
    frames;
  Alcotest.(check int) "every completion counted once" rep.Serve.r_completed !counted

let suite =
  [
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "frame rendering" `Quick test_frame_to_json_shape;
    Alcotest.test_case "live frames over a serving run" `Quick test_live_frames;
  ]
