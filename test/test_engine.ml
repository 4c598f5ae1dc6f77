open Desim

let test_clock_starts_at_zero () =
  let e = Engine.create () in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (Engine.now e)

let test_events_fire_in_order () =
  let e = Engine.create () in
  let order = ref [] in
  ignore (Engine.after e 3.0 (fun () -> order := 3 :: !order));
  ignore (Engine.after e 1.0 (fun () -> order := 1 :: !order));
  ignore (Engine.after e 2.0 (fun () -> order := 2 :: !order));
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check (float 0.0)) "final time" 3.0 (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 0 to 4 do
    ignore (Engine.after e 1.0 (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let ev = Engine.after e 1.0 (fun () -> fired := true) in
  Alcotest.(check bool) "cancel ok" true (Engine.cancel ev);
  Alcotest.(check bool) "cancel twice fails" false (Engine.cancel ev);
  Engine.run e;
  Alcotest.(check bool) "not fired" false !fired

let test_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.after e 1.0 (fun () -> fired := 1 :: !fired));
  ignore (Engine.after e 5.0 (fun () -> fired := 5 :: !fired));
  Engine.run ~until:2.0 e;
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  Alcotest.(check (float 0.0)) "clock clamped" 2.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check (list int)) "rest runs" [ 5; 1 ] !fired

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.after: negative delay")
    (fun () -> ignore (Engine.after e (-1.0) (fun () -> ())))

let test_process_delay () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e "p" (fun () ->
      log := (Engine.now e, "start") :: !log;
      Engine.delay e 2.5;
      log := (Engine.now e, "end") :: !log);
  Engine.run e;
  Alcotest.(check (list (pair (float 0.0) string)))
    "timeline"
    [ (0.0, "start"); (2.5, "end") ]
    (List.rev !log)

let test_process_self_name () =
  let e = Engine.create () in
  let name = ref "" in
  Engine.spawn e "alice" (fun () -> name := Engine.self_name ());
  Engine.run e;
  Alcotest.(check string) "name" "alice" !name

let test_two_processes_interleave () =
  let e = Engine.create () in
  let log = ref [] in
  let tick name periods =
    Engine.spawn e name (fun () ->
        List.iter
          (fun p ->
            Engine.delay e p;
            log := (Engine.now e, name) :: !log)
          periods)
  in
  tick "a" [ 1.0; 2.0 ];
  (* a at t=1,3 *)
  tick "b" [ 2.0; 2.0 ];
  (* b at t=2,4 *)
  Engine.run e;
  Alcotest.(check (list (pair (float 0.0) string)))
    "interleaving"
    [ (1.0, "a"); (2.0, "b"); (3.0, "a"); (4.0, "b") ]
    (List.rev !log)

let test_block_resume () =
  let e = Engine.create () in
  let resumer = ref (fun (_ : int) -> ()) in
  let got = ref 0 in
  Engine.spawn e "waiter" (fun () ->
      let v = Engine.block (fun resume -> resumer := resume) in
      got := v);
  ignore (Engine.after e 5.0 (fun () -> !resumer 99));
  Engine.run e;
  Alcotest.(check int) "value delivered" 99 !got;
  Alcotest.(check int) "no live processes" 0 (Engine.live_processes e)

let test_block_double_resume_rejected () =
  let e = Engine.create () in
  let resumer = ref (fun () -> ()) in
  Engine.spawn e "w" (fun () -> Engine.block (fun resume -> resumer := resume));
  ignore
    (Engine.after e 1.0 (fun () ->
         !resumer ();
         match !resumer () with
         | () -> Alcotest.fail "second resume should raise"
         | exception Invalid_argument _ -> ()));
  Engine.run e

let test_live_processes () =
  let e = Engine.create () in
  Engine.spawn e "sleeper" (fun () -> Engine.delay e 10.0);
  Alcotest.(check int) "live after spawn" 1 (Engine.live_processes e);
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "still live" 1 (Engine.live_processes e);
  Alcotest.(check (list string)) "named" [ "sleeper" ] (Engine.live_process_names e);
  Engine.run e;
  Alcotest.(check int) "done" 0 (Engine.live_processes e)

let test_quiescence_deadlock () =
  let e = Engine.create () in
  Engine.spawn e "stuck" (fun () -> ignore (Engine.block (fun _resume -> ())));
  Engine.set_quiescence_check e (fun () ->
      if Engine.live_processes e > 0 then Some "stuck processes" else None);
  Alcotest.check_raises "deadlock" (Engine.Deadlock "stuck processes") (fun () ->
      Engine.run e)

let test_quiescence_accepts_daemons () =
  let e = Engine.create () in
  Engine.spawn e "daemon" (fun () -> ignore (Engine.block (fun _resume -> ())));
  Engine.run e (* default check accepts *)

let test_max_events () =
  let e = Engine.create () in
  let rec forever () =
    Engine.delay e 1.0;
    forever ()
  in
  Engine.spawn e "loop" forever;
  match Engine.run ~max_events:100 e with
  | () -> Alcotest.fail "should hit event limit"
  | exception Failure _ -> ()

let test_spawn_from_process () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e "parent" (fun () ->
      Engine.delay e 1.0;
      let eng = Engine.self_engine () in
      Engine.spawn eng "child" (fun () ->
          Engine.delay eng 1.0;
          log := ("child", Engine.now eng) :: !log);
      Engine.delay eng 0.5;
      log := ("parent", Engine.now eng) :: !log);
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.0))))
    "child starts at spawn time"
    [ ("parent", 1.5); ("child", 2.0) ]
    (List.rev !log)

let test_determinism () =
  let run_once () =
    let e = Engine.create ~seed:5 () in
    let log = Buffer.create 64 in
    for i = 0 to 9 do
      Engine.spawn e (string_of_int i) (fun () ->
          let r = Rng.split (Engine.rng e) in
          Engine.delay e (Rng.float r);
          Buffer.add_string log (Printf.sprintf "%d@%.6f;" i (Engine.now e)))
    done;
    Engine.run e;
    Buffer.contents log
  in
  Alcotest.(check string) "identical replay" (run_once ()) (run_once ())

(* ---------------- run-ahead delays ---------------- *)

(* A delay whose wake time equals a queued event's key sorts after that
   event (later sequence number), so the event runs first; one that
   wakes strictly earlier runs first.  Either way the event count is
   what pushing the resumption would give. *)
let test_delay_tie_order () =
  let order wake =
    let e = Engine.create () in
    let log = ref [] in
    Engine.spawn e "p" (fun () ->
        ignore (Engine.after e 1.0 (fun () -> log := "event" :: !log));
        Engine.delay e wake;
        log := "process" :: !log);
    Engine.run e;
    Alcotest.(check int) "events" 3 (Engine.events_processed e);
    List.rev !log
  in
  Alcotest.(check (list string)) "equal key: event first" [ "event"; "process" ] (order 1.0);
  Alcotest.(check (list string)) "earlier: process first" [ "process"; "event" ] (order 0.5)

(* A delay landing exactly on [until] still runs; one crossing it stops
   the run at [until] with the process suspended and live. *)
let test_delay_until () =
  let e = Engine.create () in
  let woke = ref [] in
  Engine.spawn e "p" (fun () ->
      Engine.delay e 2.0;
      woke := Engine.now e :: !woke;
      Engine.delay e 1.0;
      woke := Engine.now e :: !woke);
  Engine.run ~until:2.0 e;
  Alcotest.(check (list (float 0.0))) "woke at until" [ 2.0 ] !woke;
  Alcotest.(check (float 0.0)) "clock = until" 2.0 (Engine.now e);
  Alcotest.(check int) "still live" 1 (Engine.live_processes e);
  Alcotest.(check int) "events" 2 (Engine.events_processed e);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "woke after" [ 3.0; 2.0 ] !woke;
  Alcotest.(check int) "done" 0 (Engine.live_processes e)

(* [max_events] trips at the same event and clock whether or not the
   delays before it ran ahead. *)
let test_delay_max_events () =
  let e = Engine.create () in
  let rec forever () =
    Engine.delay e 1.0;
    forever ()
  in
  Engine.spawn e "loop" forever;
  Alcotest.check_raises "overflow" (Failure "Engine.run: exceeded 100 events at t=100")
    (fun () -> Engine.run ~max_events:100 e);
  Alcotest.(check int) "events" 101 (Engine.events_processed e)

(* Event callbacks are not processes: [delay] there still performs its
   effect, which nothing handles — before any process ran, and after a
   process suspended or returned. *)
let test_delay_from_event () =
  let raises e =
    match Engine.run e with
    | () -> Alcotest.fail "delay from an event callback should raise"
    | exception Effect.Unhandled _ -> ()
  in
  let e = Engine.create () in
  ignore (Engine.after e 1.0 (fun () -> Engine.delay e 1.0));
  raises e;
  let e = Engine.create () in
  Engine.spawn e "p" (fun () ->
      Engine.delay e 0.5;
      Engine.delay e 5.0);
  ignore (Engine.after e 1.0 (fun () -> Engine.delay e 1.0));
  raises e;
  let e = Engine.create () in
  Engine.spawn e "p" (fun () -> Engine.delay e 0.5);
  ignore (Engine.after e 1.0 (fun () -> Engine.delay e 1.0));
  raises e

let suite =
  [
    Alcotest.test_case "clock starts at 0" `Quick test_clock_starts_at_zero;
    Alcotest.test_case "events fire in order" `Quick test_events_fire_in_order;
    Alcotest.test_case "same-time events FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "cancel prevents firing" `Quick test_cancel;
    Alcotest.test_case "run ~until" `Quick test_until;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
    Alcotest.test_case "process delay timeline" `Quick test_process_delay;
    Alcotest.test_case "process self name" `Quick test_process_self_name;
    Alcotest.test_case "two processes interleave" `Quick test_two_processes_interleave;
    Alcotest.test_case "block/resume with value" `Quick test_block_resume;
    Alcotest.test_case "double resume rejected" `Quick test_block_double_resume_rejected;
    Alcotest.test_case "live process accounting" `Quick test_live_processes;
    Alcotest.test_case "quiescence check raises Deadlock" `Quick test_quiescence_deadlock;
    Alcotest.test_case "quiescence accepts daemons" `Quick test_quiescence_accepts_daemons;
    Alcotest.test_case "max_events guard" `Quick test_max_events;
    Alcotest.test_case "spawn from process" `Quick test_spawn_from_process;
    Alcotest.test_case "deterministic replay" `Quick test_determinism;
    Alcotest.test_case "delay tie order" `Quick test_delay_tie_order;
    Alcotest.test_case "delay across run ~until" `Quick test_delay_until;
    Alcotest.test_case "delay keeps max_events count" `Quick test_delay_max_events;
    Alcotest.test_case "delay from event raises" `Quick test_delay_from_event;
  ]
