(* The checker checking itself: DFS completeness on a toy program with
   a known interleaving count, seeded regressions that must be caught
   within their committed budgets, deterministic replay of shrunk
   counterexamples, and the trail/strategy plumbing. *)

open Desim

let violation_of name (r : Check.report) =
  match r.Check.result with
  | `Violation cx -> cx
  | `Ok -> Alcotest.failf "%s: expected a violation, got none" name

let assert_ok name (r : Check.report) =
  match r.Check.result with
  | `Ok -> ()
  | `Violation cx -> Alcotest.failf "%s:\n%s" name (Check.describe cx)

(* ------------------------------------------------------------------ *)
(* DFS completeness: two processes, each "mark; delay 0; mark", give
   exactly C(4,2) = 6 interleavings of aabb.  DFS must enumerate every
   one exactly once and then report the space exhausted. *)

let toy_prog orders env =
  let order = Buffer.create 4 in
  let proc name () =
    Buffer.add_string order name;
    Engine.delay env.Check.eng 0.0;
    Buffer.add_string order name
  in
  Engine.spawn env.Check.eng "A" (proc "a");
  Engine.spawn env.Check.eng "B" (proc "b");
  Check.program ~oracle:(fun () -> orders := Buffer.contents order :: !orders) ()

let test_dfs_enumerates_toy () =
  let orders = ref [] in
  let r = Check.run ~budget:100 ~strategy:Check.Dfs (toy_prog orders) in
  assert_ok "toy program" r;
  Alcotest.(check bool) "space exhausted" true r.Check.exhausted;
  Alcotest.(check int) "six schedules run" 6 r.Check.schedules;
  let seen = List.sort compare !orders in
  Alcotest.(check (list string)) "every interleaving exactly once"
    [ "aabb"; "abab"; "abba"; "baab"; "baba"; "bbaa" ]
    seen

let test_dfs_is_deterministic () =
  let once () =
    let orders = ref [] in
    ignore (Check.run ~budget:100 ~strategy:Check.Dfs (toy_prog orders));
    !orders
  in
  Alcotest.(check (list string)) "same enumeration order" (once ()) (once ())

(* Random walk on the same toy: every schedule is legal, none crashes,
   and distinct seeds reach more than one interleaving. *)
let test_random_walk_toy () =
  let orders = ref [] in
  let r =
    Check.run ~seed:13 ~budget:40 ~strategy:Check.Random_walk (toy_prog orders)
  in
  assert_ok "toy program" r;
  Alcotest.(check int) "all schedules run" 40 r.Check.schedules;
  let distinct = List.sort_uniq compare !orders in
  Alcotest.(check bool) "explored more than one interleaving" true
    (List.length distinct > 1);
  List.iter
    (fun o ->
      if not (List.mem o [ "aabb"; "abab"; "abba"; "baab"; "baba"; "bbaa" ])
      then Alcotest.failf "illegal interleaving %S" o)
    distinct

(* PCT keeps the default schedule when d = 0 and diverges for d > 0. *)
let test_pct_depth_zero_is_default () =
  let orders = ref [] in
  let r = Check.run ~budget:5 ~strategy:(Check.Pct 0) (toy_prog orders) in
  assert_ok "toy program" r;
  (* "abab": each [delay 0.] re-posts behind the already-queued peer,
     so the default tie-break alternates the two processes. *)
  Alcotest.(check (list string)) "always the default interleaving"
    [ "abab"; "abab"; "abab"; "abab"; "abab" ]
    !orders

let scenario name =
  match Check.Scenarios.find name with
  | Some s -> s
  | None -> Alcotest.failf "scenario %S missing from registry" name

(* ------------------------------------------------------------------ *)
(* DPOR: on a *labeled* variant of the toy, partial-order reduction
   must reach the same verdicts as plain DFS while exploring strictly
   fewer schedules.  A's first step and B's second step share footprint
   "s" (the only dependent pair); every other step touches a private
   atom.  The 6 interleavings therefore collapse to 2 Mazurkiewicz
   traces: A1 before B2 (5 interleavings) and B2 before A1 (only
   "bbaa"). *)

let labeled_toy ?(violating = false) orders env =
  let order = Buffer.create 4 in
  let step name = Buffer.add_string order name in
  Engine.spawn ~footprint:"s" env.Check.eng "A" (fun () ->
      step "a";
      Engine.set_footprint "pa";
      Engine.delay env.Check.eng 0.0;
      step "a");
  Engine.spawn ~footprint:"pb" env.Check.eng "B" (fun () ->
      step "b";
      Engine.set_footprint "s";
      Engine.delay env.Check.eng 0.0;
      step "b");
  Check.program
    ~oracle:(fun () ->
      let o = Buffer.contents order in
      orders := o :: !orders;
      Check.require (not (violating && o = "bbaa")) "B overtook A's first step")
    ()

let test_dpor_explores_fewer_schedules_than_dfs () =
  let o_dfs = ref [] and o_dpor = ref [] in
  let dfs = Check.run ~budget:100 ~strategy:Check.Dfs (labeled_toy o_dfs) in
  let dpor = Check.run ~budget:100 ~strategy:Check.Dpor (labeled_toy o_dpor) in
  assert_ok "dfs" dfs;
  assert_ok "dpor" dpor;
  Alcotest.(check bool) "dfs exhausted" true dfs.Check.exhausted;
  Alcotest.(check bool) "dpor exhausted" true dpor.Check.exhausted;
  Alcotest.(check int) "dfs explores all six" 6 dfs.Check.schedules;
  Alcotest.(check int) "dpor explores one per trace" 2 dpor.Check.schedules;
  (* The two representatives must come from distinct traces. *)
  let classes =
    List.sort_uniq compare (List.map (fun o -> o = "bbaa") !o_dpor)
  in
  Alcotest.(check int) "both Mazurkiewicz classes covered" 2
    (List.length classes)

let test_dpor_finds_the_dfs_violation () =
  let o1 = ref [] and o2 = ref [] in
  let dfs =
    Check.run ~budget:100 ~strategy:Check.Dfs
      (labeled_toy ~violating:true o1)
  in
  let dpor =
    Check.run ~budget:100 ~strategy:Check.Dpor
      (labeled_toy ~violating:true o2)
  in
  let cd = violation_of "dfs" dfs in
  let cp = violation_of "dpor" dpor in
  Alcotest.(check string) "same violation" cd.Check.cx_message
    cp.Check.cx_message;
  Alcotest.(check bool) "dpor needed strictly fewer schedules" true
    (dpor.Check.schedules < dfs.Check.schedules)

(* Three writers on disjoint footprints (two labeled steps each): all
   90 interleavings are equivalent, so DPOR must run exactly the
   default schedule and stop — nothing pruned, space exhausted. *)
let test_dpor_collapses_independent_writers () =
  let prog env =
    for p = 0 to 2 do
      let cell = ref 0 in
      Engine.spawn
        ~footprint:(Printf.sprintf "p%d" p)
        env.Check.eng
        (Printf.sprintf "W%d" p)
        (fun () ->
          incr cell;
          Engine.delay env.Check.eng 0.0;
          incr cell)
    done;
    Check.program ()
  in
  let r = Check.run ~budget:100 ~strategy:Check.Dpor prog in
  assert_ok "independent writers" r;
  Alcotest.(check bool) "exhausted" true r.Check.exhausted;
  Alcotest.(check int) "single representative schedule" 1 r.Check.schedules;
  Alcotest.(check int) "nothing pruned" 0 r.Check.pruned

(* The registry's dpor-writers program has 12 events in 4 processes =
   12!/(3!)^4 = 369,600 plain interleavings; DPOR must exhaust the
   space within its committed budget, well under 10% of that. *)
let test_dpor_writers_scenario_exhausts () =
  let s = scenario "dpor-writers" in
  (match s.Check.Scenarios.sstrategy with
  | Some Check.Dpor -> ()
  | _ -> Alcotest.fail "dpor-writers must be registered for Dpor");
  let r =
    Check.run ~seed:1 ~budget:s.Check.Scenarios.sbudget ~strategy:Check.Dpor
      s.Check.Scenarios.prog
  in
  assert_ok "dpor-writers" r;
  Alcotest.(check bool) "space exhausted" true r.Check.exhausted;
  Alcotest.(check bool) "within the committed budget" true
    (r.Check.schedules <= s.Check.Scenarios.sbudget);
  Alcotest.(check bool) "at most 10% of the 369,600 plain interleavings"
    true
    (r.Check.schedules * 10 <= 369_600)

(* The shipped deque and Scheduler scenarios are DPOR programs at their
   smallest shapes: each must exhaust its space, and the schedule count
   is pinned, so that a change to lib/fiber's deque.ml or scheduler.ml,
   or to the traced Atomic, that adds or drops a schedule point shows
   here. *)
let test_shipped_scenarios_exhaust () =
  List.iter
    (fun (name, schedules) ->
      let s = scenario name in
      let r =
        Check.run ~seed:1 ~budget:s.Check.Scenarios.sbudget ~strategy:Check.Dpor
          s.Check.Scenarios.prog
      in
      assert_ok name r;
      Alcotest.(check bool) (name ^ ": space exhausted") true r.Check.exhausted;
      Alcotest.(check int) (name ^ ": schedules") schedules r.Check.schedules)
    [
      ("deque-steal", 7553);
      ("deque-batch", 5104);
      ("sched-take", 2236);
      ("sched-submit", 2336);
    ]

(* ------------------------------------------------------------------ *)
(* Parallel exploration: the counterexample must not depend on how many
   domains scanned the seed space. *)

let test_jobs_determinism () =
  let s = scenario "racy-flag" in
  let go jobs =
    Check.run ~seed:1 ~jobs ~faults:s.Check.Scenarios.sfaults
      ~budget:s.Check.Scenarios.sbudget ~strategy:Check.Random_walk
      s.Check.Scenarios.prog
  in
  let r1 = go 1 and r4 = go 4 in
  let c1 = violation_of "jobs=1" r1 in
  let c4 = violation_of "jobs=4" r4 in
  Alcotest.(check int) "same failing schedule" c1.Check.cx_schedule
    c4.Check.cx_schedule;
  Alcotest.(check string) "same message" c1.Check.cx_message
    c4.Check.cx_message;
  Alcotest.(check string) "same shrunk trail"
    (Check.Trail.signature c1.Check.cx_trail)
    (Check.Trail.signature c4.Check.cx_trail);
  Alcotest.(check int) "same schedule count" r1.Check.schedules
    r4.Check.schedules

(* ------------------------------------------------------------------ *)
(* Seeded regressions over the scenario registry: the committed budgets
   in Scenarios.all must suffice, the shrunk counterexample must be
   small, and replaying it must deterministically reproduce the same
   violation. *)

let run_scenario (s : Check.Scenarios.t) =
  Check.run ~seed:1 ~faults:s.Check.Scenarios.sfaults
    ~budget:s.Check.Scenarios.sbudget ~strategy:Check.Random_walk
    s.Check.Scenarios.prog

let test_deadlock_caught_and_shrunk () =
  let s = scenario "deadlock" in
  let cx = violation_of "deadlock" (run_scenario s) in
  Alcotest.(check bool) "reported as deadlock" true
    (Astring_contains.contains cx.Check.cx_message "deadlock");
  Alcotest.(check bool) "names both threads" true
    (Astring_contains.contains cx.Check.cx_message "lock-ab"
    && Astring_contains.contains cx.Check.cx_message "lock-ba");
  (* The AB/BA inversion deadlocks even in the default schedule, so
     greedy shrinking must drive every forced pick back to 0. *)
  Alcotest.(check int) "shrunk to the default schedule" 0
    (Check.Trail.forced cx.Check.cx_trail)

let test_deadlock_replay_is_deterministic () =
  let s = scenario "deadlock" in
  let cx = violation_of "first run" (run_scenario s) in
  (* Same (seed, strategy, budget) triple: identical counterexample. *)
  let cx' = violation_of "second run" (run_scenario s) in
  Alcotest.(check string) "same message" cx.Check.cx_message
    cx'.Check.cx_message;
  Alcotest.(check int) "same failing schedule" cx.Check.cx_schedule
    cx'.Check.cx_schedule;
  Alcotest.(check string) "same shrunk trail"
    (Check.Trail.signature cx.Check.cx_trail)
    (Check.Trail.signature cx'.Check.cx_trail);
  (* Replaying the shrunk trail reproduces the violation. *)
  let rep = Check.replay cx s.Check.Scenarios.prog in
  let cxr = violation_of "trail replay" rep in
  Alcotest.(check string) "replay reproduces the message" cx.Check.cx_message
    cxr.Check.cx_message

let test_lost_wakeup_caught () =
  let s = scenario "lost-wakeup" in
  let cx = violation_of "lost-wakeup" (run_scenario s) in
  Alcotest.(check bool) "waiter is stuck" true
    (Astring_contains.contains cx.Check.cx_message "waiter");
  (* The bug needs a worker stall: the shrunk schedule keeps at least
     one forced pick, and replaying it still deadlocks. *)
  Alcotest.(check bool) "shrunk schedule still forces choices" true
    (Check.Trail.forced cx.Check.cx_trail > 0);
  (* The Chrome trace is drawn from the same flight record, core lanes
     included. *)
  (match Experiments.Chrome_trace.validate cx.Check.cx_trace with
  | Ok n -> Alcotest.(check bool) "cx_trace has events" true (n > 0)
  | Error e -> Alcotest.failf "cx_trace rejected: %s" e);
  Alcotest.(check bool) "cx_trace has core lanes" true
    (Astring_contains.contains cx.Check.cx_trace "\"cat\":\"klt\"");
  let cxr =
    violation_of "trail replay" (Check.replay cx s.Check.Scenarios.prog)
  in
  Alcotest.(check string) "deterministic replay" cx.Check.cx_message
    cxr.Check.cx_message

let test_pass_scenarios_pass () =
  List.iter
    (fun (s : Check.Scenarios.t) ->
      if s.Check.Scenarios.expect = Check.Scenarios.Pass then
        assert_ok s.Check.Scenarios.sname (run_scenario s))
    Check.Scenarios.all

(* A seeded bug must be caught within its scenario's committed budget,
   deterministically (same run twice = same shrunk trail), and replaying
   the shrunk trail must reproduce the same violation. *)
let regression_caught ?(run = run_scenario) (name, needle) =
  let s = scenario name in
  let cx = violation_of name (run s) in
  if not (Astring_contains.contains cx.Check.cx_message needle) then
    Alcotest.failf "%s: %S does not mention %S" name cx.Check.cx_message needle;
  let cx' = violation_of (name ^ " rerun") (run s) in
  Alcotest.(check string) (name ^ ": deterministic message")
    cx.Check.cx_message cx'.Check.cx_message;
  Alcotest.(check string) (name ^ ": deterministic shrunk trail")
    (Check.Trail.signature cx.Check.cx_trail)
    (Check.Trail.signature cx'.Check.cx_trail);
  let cxr =
    violation_of (name ^ " replay") (Check.replay cx s.Check.Scenarios.prog)
  in
  Alcotest.(check string) (name ^ ": replay reproduces the violation")
    cx.Check.cx_message cxr.Check.cx_message;
  cx

(* The Excl monitor's seeded bug: two racers both pass the flag test. *)
let test_racy_flag_caught () =
  ignore (regression_caught ("racy-flag", "mutual exclusion"))

(* A torn CAS in the traced Atomic (read, schedule point, write) lets
   the owner's last-element pop and a steal both claim the task.  DPOR
   must catch it like a seeded lock bug, and the shrunk trail must still
   force the interleaving; otherwise the Atomic no longer yields at each
   access. *)
let test_torn_cas_caught () =
  let run (s : Check.Scenarios.t) =
    Check.run ~seed:1 ~budget:s.Check.Scenarios.sbudget ~strategy:Check.Dpor
      s.Check.Scenarios.prog
  in
  let cx = regression_caught ~run ("deque-torn-cas", "task 0 ran 2 time(s)") in
  Alcotest.(check bool) "shrunk trail still forces the race" true
    (Check.Trail.forced cx.Check.cx_trail > 0)

(* ------------------------------------------------------------------ *)
(* Plumbing: trails, oracles, controller validation. *)

let test_trail_summary () =
  let t =
    [|
      { Check.Trail.tag = "engine.tie"; n = 3; picked = 0 };
      { Check.Trail.tag = "steal.victim"; n = 2; picked = 1 };
      { Check.Trail.tag = "engine.tie"; n = 2; picked = 0 };
    |]
  in
  Alcotest.(check int) "forced" 1 (Check.Trail.forced t);
  Alcotest.(check int) "length" 3 (Check.Trail.length t);
  Alcotest.(check bool) "summary names the forced pick" true
    (Astring_contains.contains (Check.Trail.to_string t) "steal.victim = 1/2");
  Alcotest.(check string) "signature" "0.1.0." (Check.Trail.signature t)

let test_excl_monitor () =
  let e = Check.Excl.create "crit" in
  Check.Excl.critical e (fun () -> ());
  Check.Excl.critical e (fun () -> ());
  Alcotest.check_raises "second entrant trips the monitor"
    (Check.Violation "mutual exclusion violated: 2 threads inside crit")
    (fun () -> Check.Excl.critical e (fun () -> Check.Excl.critical e ignore))

let test_choice_validates_picks () =
  let c = Choice.create ~choose:(fun ~n:_ ~tag:_ ~alts:_ -> 7) () in
  Alcotest.check_raises "out-of-range pick rejected"
    (Invalid_argument "Choice: x picked 7 of 3") (fun () ->
      ignore (Choice.pick c ~n:3 ~tag:"x"))

(* Shrinker cost pins: the replay functions below are synthetic, so the
   exact number of replays the shrinker spends is deterministic and
   guards the early-exit paths (phase 2 skipped when nothing is forced;
   chunk loop stops once a full pass attempts no candidate). *)

let entry picked = { Check.Trail.tag = "engine.tie"; n = 2; picked }

let test_shrink_skips_phase2_when_nothing_forced () =
  let trail = Array.make 8 (entry 0) in
  let calls = ref 0 in
  let replay _ =
    incr calls;
    None
  in
  let best, _, attempts = Check.shrink ~replay ~max_replays:100 trail "boom" in
  (* Binary search for the shortest failing prefix costs 3 replays on a
     length-8 trail; an all-defaults trail must not enter phase 2. *)
  Alcotest.(check int) "exactly the phase-1 replays" 3 attempts;
  Alcotest.(check int) "replay called once per attempt" 3 !calls;
  Alcotest.(check int) "trail kept" 8 (Check.Trail.length best)

let test_shrink_stops_once_zeroed () =
  let trail = Array.init 8 (fun i -> entry (if i = 0 then 1 else 0)) in
  (* Prefixes never reproduce; the full-length trail always does. *)
  let replay cand =
    if Check.Trail.length cand < 8 then None else Some (cand, "boom")
  in
  let best, msg, attempts =
    Check.shrink ~replay ~max_replays:100 trail "boom"
  in
  (* 3 failed prefix probes + 1 successful chunk zeroing; once the
     trail is all-defaults the remaining chunk sizes attempt nothing
     and the loop must stop instead of replaying identical trails. *)
  Alcotest.(check int) "phase-1 + one zeroing replay" 4 attempts;
  Alcotest.(check int) "fully zeroed" 0 (Check.Trail.forced best);
  Alcotest.(check string) "message kept" "boom" msg

let test_shrink_worst_case_cost () =
  let trail = Array.make 8 (entry 1) in
  let replay _ = None in
  let _, _, attempts = Check.shrink ~replay ~max_replays:100 trail "boom" in
  (* 3 prefix probes, then chunk passes at sizes 4 (2), 2 (4), 1 (8):
     every range holds a forced pick, so every candidate is attempted. *)
  Alcotest.(check int) "bounded worst case" 17 attempts

let test_registry_names_sorted () =
  let names = Check.Scenarios.names () in
  Alcotest.(check (list string)) "names are sorted"
    (List.sort compare names) names;
  List.iter
    (fun n ->
      if not (List.mem n names) then
        Alcotest.failf "scenario %S missing from the registry" n)
    [ "dpor-writers" ];
  Alcotest.(check int) "shipped tag groups the lib/fiber runs" 6
    (List.length (Check.Scenarios.find_tag "shipped"))

let test_run_rejects_bad_budget () =
  Alcotest.check_raises "budget must be positive"
    (Invalid_argument "Check.run: budget must be positive") (fun () ->
      ignore
        (Check.run ~budget:0 ~strategy:Check.Random_walk (fun _ ->
             Check.program ())))

let suite =
  [
    Alcotest.test_case "DFS enumerates the toy space" `Quick
      test_dfs_enumerates_toy;
    Alcotest.test_case "DFS is deterministic" `Quick test_dfs_is_deterministic;
    Alcotest.test_case "random walk stays legal" `Quick test_random_walk_toy;
    Alcotest.test_case "PCT depth 0 is the default schedule" `Quick
      test_pct_depth_zero_is_default;
    Alcotest.test_case "DPOR explores fewer schedules than DFS" `Quick
      test_dpor_explores_fewer_schedules_than_dfs;
    Alcotest.test_case "DPOR finds the DFS violation" `Quick
      test_dpor_finds_the_dfs_violation;
    Alcotest.test_case "DPOR collapses independent writers" `Quick
      test_dpor_collapses_independent_writers;
    Alcotest.test_case "dpor-writers scenario exhausts" `Quick
      test_dpor_writers_scenario_exhausts;
    Alcotest.test_case "jobs=1 and jobs=4 agree" `Quick test_jobs_determinism;
    Alcotest.test_case "deadlock caught and shrunk" `Quick
      test_deadlock_caught_and_shrunk;
    Alcotest.test_case "deadlock replay deterministic" `Quick
      test_deadlock_replay_is_deterministic;
    Alcotest.test_case "lost wakeup caught" `Quick test_lost_wakeup_caught;
    Alcotest.test_case "racy flag caught" `Quick test_racy_flag_caught;
    Alcotest.test_case "pass scenarios pass" `Quick test_pass_scenarios_pass;
    Alcotest.test_case "torn CAS caught" `Quick test_torn_cas_caught;
    Alcotest.test_case "trail summary" `Quick test_trail_summary;
    Alcotest.test_case "excl monitor" `Quick test_excl_monitor;
    Alcotest.test_case "choice validates picks" `Quick
      test_choice_validates_picks;
    Alcotest.test_case "shrink skips phase 2 when nothing forced" `Quick
      test_shrink_skips_phase2_when_nothing_forced;
    Alcotest.test_case "shrink stops once zeroed" `Quick
      test_shrink_stops_once_zeroed;
    Alcotest.test_case "shrink worst-case cost" `Quick
      test_shrink_worst_case_cost;
    Alcotest.test_case "registry names sorted" `Quick
      test_registry_names_sorted;
    Alcotest.test_case "run rejects bad budget" `Quick
      test_run_rejects_bad_budget;
    Alcotest.test_case "shipped scenarios exhaust" `Quick
      test_shipped_scenarios_exhaust;
  ]
