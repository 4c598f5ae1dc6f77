open Desim
open Oskern
open Preempt_core
open Experiments

(* A bare kernel whose events land in a recorder's global ring, as the
   runtime's observer puts them there. *)
let recorded_kernel ~cores =
  let eng = Engine.create () in
  let r = Recorder.create ~n_workers:1 ~capacity:4096 in
  Recorder.set_enabled r true;
  Engine.set_observer eng
    (Some (fun ts code a b -> Recorder.emit r (Recorder.global_ring r) ts code a b));
  (eng, Kernel.create eng (Machine.with_cores Machine.skylake cores), r)

let test_occupancy_from_real_trace () =
  let eng, k, r = recorded_kernel ~cores:2 in
  ignore (Kernel.spawn k ~affinity:(Cpuset.of_list 2 [ 0 ]) ~name:"alpha" (fun klt ->
      Kernel.compute k klt 0.01));
  ignore (Kernel.spawn k ~affinity:(Cpuset.of_list 2 [ 1 ]) ~name:"beta" (fun klt ->
      Kernel.compute k klt 0.02));
  Engine.run eng;
  let g = Gantt.of_trace (Recorder.events r) in
  Alcotest.(check int) "two core lanes" 2 (Gantt.cores g);
  Alcotest.(check (option string)) "alpha on core0" (Some "klt0")
    (Gantt.occupant g ~core:0 ~time:0.005);
  Alcotest.(check (option string)) "beta on core1" (Some "klt1")
    (Gantt.occupant g ~core:1 ~time:0.015);
  Alcotest.(check (option string)) "core0 idle after exit" None
    (Gantt.occupant g ~core:0 ~time:0.015);
  let out = Gantt.render ~t0:0.0 ~t1:0.02 g in
  Alcotest.(check bool) "legend alpha" true (Astring_contains.contains out "klt0");
  Alcotest.(check bool) "legend beta" true (Astring_contains.contains out "klt1");
  Alcotest.(check bool) "idle dots" true (String.contains out '.')

let test_timeslice_alternation_visible () =
  let eng, k, r = recorded_kernel ~cores:1 in
  for i = 0 to 1 do
    ignore (Kernel.spawn k ~name:(Printf.sprintf "t%d" i) (fun klt -> Kernel.compute k klt 0.03))
  done;
  Engine.run eng;
  let g = Gantt.of_trace (Recorder.events r) in
  (* Both threads appear on core 0 over the run (CFS alternation). *)
  let seen = Hashtbl.create 4 in
  for b = 0 to 99 do
    match Gantt.occupant g ~core:0 ~time:(0.0006 *. float_of_int b) with
    | Some n -> Hashtbl.replace seen n ()
    | None -> ()
  done;
  Alcotest.(check int) "both threads visible" 2 (Hashtbl.length seen)

(* A KLT that sleeps gives its core up: the lane closes at its block
   and reopens at its next dispatch. *)
let test_blocked_klt_frees_core () =
  let eng, k, r = recorded_kernel ~cores:1 in
  ignore
    (Kernel.spawn k ~name:"alpha" (fun klt ->
         Kernel.compute k klt 1e-3;
         Kernel.sleep k klt 5e-3;
         Kernel.compute k klt 1e-3));
  Engine.run eng;
  let g = Gantt.of_trace (Recorder.events r) in
  Alcotest.(check (option string)) "running at 0.5 ms" (Some "klt0")
    (Gantt.occupant g ~core:0 ~time:0.5e-3);
  Alcotest.(check (option string)) "core idle while asleep" None
    (Gantt.occupant g ~core:0 ~time:3e-3);
  Alcotest.(check (option string)) "running again at 6.5 ms" (Some "klt0")
    (Gantt.occupant g ~core:0 ~time:6.5e-3);
  match Gantt.spans g ~t_end:(Engine.now eng) with
  | [ (0, "klt0", a0, a1); (0, "klt0", b0, b1) ] ->
      Alcotest.(check bool) "first span ends at the sleep" true (a0 = 0.0 && a1 < 1.1e-3);
      Alcotest.(check bool) "second span starts at the wake" true (b0 > 6e-3 && b1 > b0)
  | spans -> Alcotest.failf "expected two spans, got %d" (List.length spans)

let test_render_bad_window () =
  let g = Gantt.of_trace [||] in
  Alcotest.check_raises "empty window" (Invalid_argument "Gantt.render: empty window")
    (fun () -> ignore (Gantt.render ~t0:1.0 ~t1:1.0 g))

let suite =
  [
    Alcotest.test_case "occupancy from trace" `Quick test_occupancy_from_real_trace;
    Alcotest.test_case "timeslice alternation visible" `Quick test_timeslice_alternation_visible;
    Alcotest.test_case "blocked KLT frees its core" `Quick test_blocked_klt_frees_core;
    Alcotest.test_case "bad window rejected" `Quick test_render_bad_window;
  ]
