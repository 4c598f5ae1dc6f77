(* Visualize what KLT-switching actually does to the cores: a Gantt
   timeline of one worker preempting two compute threads, drawn from
   the kernel events of the runtime's flight recorder.  Watch the
   worker's kernel thread change identity at every switch — the thread
   pool's KLTs take over while the original worker KLT (klt0) sleeps
   bound to its preempted thread.

   Run with:  dune exec examples/preemption_timeline.exe *)

open Desim
open Oskern
open Preempt_core

let () =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores Machine.skylake 1) in
  let config =
    {
      Config.default with
      Config.timer_strategy = Config.Per_worker_aligned;
      interval = 2e-3;
      recorder_enabled = true;
    }
  in
  let rt = Runtime.create ~config kernel ~n_workers:1 in
  for i = 0 to 1 do
    ignore
      (Runtime.spawn rt ~kind:Types.Klt_switching ~home:0
         ~name:(Printf.sprintf "thread%d" i)
         (fun () -> Ult.compute 0.012))
  done;
  Runtime.start rt;
  Engine.run eng;
  Printf.printf
    "One worker, two KLT-switching threads (12 ms each), 2 ms preemption timer.\n";
  Printf.printf "%d preemptions, %d KLT switches, %d extra KLTs created.\n\n"
    (Runtime.preempt_signals rt) (Runtime.klt_switches rt) (Runtime.klts_created rt);
  let g = Experiments.Gantt.of_trace (Runtime.flight_events rt) in
  print_string (Experiments.Gantt.render ~width:72 ~t0:0.0 ~t1:(Engine.now eng) g);
  print_newline ();
  print_endline "Each glyph change on the core lane is a kernel-thread switch: the";
  print_endline "original worker KLT (klt0) sleeps bound to the preempted user-level";
  print_endline "thread (paper Fig. 2), and a pooled KLT carries the worker on (Fig. 3)."
