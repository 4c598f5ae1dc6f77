(** Paper Table 1: median per-preemption overhead at a 10 ms interval.

    1:1 threads are measured by a throughput probe on the raw kernel: a
    pinned spinner is preempted every 10 ms by a woken sleeper, and the
    spinner's completion delay (minus the sleeper's own work) divided by
    the number of preemptions is the per-preemption cost — both context
    switches included, like an OS-preemption round trip.

    The M:N rows use the runtime's preemption-latency probe: time from
    the preemption signal being posted to the next thread running on the
    worker (median over many preemptions). *)

open Desim
open Oskern
open Preempt_core

type row = { machine : string; one_to_one : float; signal_yield : float; klt_switching : float }

let one_to_one machine ~preemptions =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores machine 1) in
  let interval = 10e-3 in
  let work = float_of_int preemptions *. interval in
  let intruder_work = 1e-6 in
  let finish = ref 0.0 in
  let wakeups = ref 0 in
  ignore
    (Kernel.spawn kernel ~name:"spinner" (fun klt ->
         Kernel.compute kernel klt work;
         finish := Kernel.now kernel));
  ignore
    (Kernel.spawn kernel ~name:"intruder" (fun klt ->
         (* Sleep-wake every interval; each wake preempts the spinner. *)
         while Kernel.now kernel < work do
           Kernel.sleep kernel klt interval;
           Kernel.compute kernel klt intruder_work;
           incr wakeups
         done));
  Engine.run eng;
  let n = float_of_int !wakeups in
  if n = 0.0 then 0.0
  else (!finish -. work -. (n *. intruder_work)) /. n

let mn machine ~kind ~preemptions =
  let eng = Engine.create () in
  let kernel = Kernel.create eng (Machine.with_cores machine 1) in
  let interval = 10e-3 in
  let config =
    Exputil.Obs.config
      { Config.default with Config.timer_strategy = Config.Per_worker_aligned; interval }
  in
  let rt = Runtime.create ~config kernel ~n_workers:1 in
  let per_thread = float_of_int preemptions *. interval /. 2.0 in
  for i = 0 to 1 do
    ignore
      (Runtime.spawn rt ~kind ~footprint:0.0 ~home:0 ~name:(Printf.sprintf "t%d" i)
         (fun () -> Ult.compute per_thread))
  done;
  Runtime.start rt;
  Engine.run eng;
  Exputil.Obs.capture rt;
  let s = Runtime.preempt_latency_stats rt in
  if Stats.count s = 0 then 0.0 else Stats.median s

let measure machine name ~preemptions =
  {
    machine = name;
    one_to_one = one_to_one machine ~preemptions;
    signal_yield = mn machine ~kind:Types.Signal_yield ~preemptions;
    klt_switching = mn machine ~kind:Types.Klt_switching ~preemptions;
  }

let run ?(fast = false) () =
  let preemptions = if fast then 200 else 1000 in
  Exputil.heading "Table 1: overhead of preemption (median, 10 ms interval)";
  let rows =
    [
      measure Machine.skylake "Skylake" ~preemptions;
      measure Machine.knl "KNL" ~preemptions;
    ]
  in
  Printf.printf "%-10s%22s%18s%18s\n" "" "1:1 threads (Pthreads)" "Signal-yield"
    "KLT-switching";
  List.iter
    (fun r ->
      Printf.printf "%-10s%22s%18s%18s\n" r.machine (Exputil.us r.one_to_one)
        (Exputil.us r.signal_yield) (Exputil.us r.klt_switching))
    rows;
  Printf.printf
    "\nPaper:     Skylake 2.8 / 3.5 / 9.9 us;  KNL 15 / 18 / 62 us\n\
     (signal-yield ~1.2x and KLT-switching ~4x the 1:1 cost).\n";
  rows
