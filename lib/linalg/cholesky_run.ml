open Desim
open Oskern
open Preempt_core
module Omp = Ompmodel.Omp

type config =
  | Bolt of {
      kind : Types.thread_kind;
      mkl : Blas_model.barrier_style;
      timer : Config.timer_strategy;
      interval : float;
    }
  | Iomp of { flat : bool }

type result = {
  gflops : float;
  deadlocked : bool;
  tasks : int;
  preemptions : int;
}

let config_name = function
  | Bolt { kind; mkl; interval; _ } ->
      let kind_name =
        match kind with
        | Types.Nonpreemptive -> "nonpreemptive"
        | Types.Signal_yield -> "signal-yield"
        | Types.Klt_switching -> "KLT-switching"
      in
      let mkl_name =
        match mkl with
        | Blas_model.Busy_wait -> "stock MKL"
        | Blas_model.Yield_wait -> "reverse-engineered MKL"
      in
      if kind = Types.Nonpreemptive then Printf.sprintf "BOLT (%s, %s)" kind_name mkl_name
      else Printf.sprintf "BOLT (preemptive %s, intvl=%gms, %s)" kind_name (interval *. 1e3) mkl_name
  | Iomp { flat } -> if flat then "IOMP (flat)" else "IOMP"

(* Shared DAG-execution state. *)
type dag_state = {
  tasks : Tiled.task array;
  remaining : int array;  (* unmet dependencies per task *)
  ready : int Queue.t;
  mutable completed : int;
  mutable finish_time : float;
}

let dag_state tiles =
  let tasks = Tiled.dag tiles in
  let remaining = Array.map (fun (t : Tiled.task) -> List.length t.preds) tasks in
  let ready = Queue.create () in
  Array.iter (fun (t : Tiled.task) -> if remaining.(t.id) = 0 then Queue.add t.id ready) tasks;
  { tasks; remaining; ready; completed = 0; finish_time = 0.0 }

let complete st now id =
  st.completed <- st.completed + 1;
  if st.completed = Array.length st.tasks then st.finish_time <- now;
  List.iter
    (fun s ->
      st.remaining.(s) <- st.remaining.(s) - 1;
      if st.remaining.(s) = 0 then Queue.add s st.ready)
    st.tasks.(id).Tiled.succs

let seconds_of st machine ~per_core_gflops ~tile_dim id =
  ignore machine;
  Tiled.flops st.tasks.(id).Tiled.op ~b:tile_dim /. (per_core_gflops *. 1e9)

(* Watchdog: generous multiple of the ideal makespan. *)
let deadline machine ~per_core_gflops ~tiles ~tile_dim =
  let ideal =
    Tiled.total_flops tiles ~b:tile_dim
    /. (per_core_gflops *. 1e9)
    /. float_of_int machine.Machine.cores
  in
  (ideal *. 8.0) +. 1.0

let run_bolt machine ~outer ~inner ~per_core_gflops ~tiles ~tile_dim ~kind ~mkl ~timer
    ~interval =
  let eng = Engine.create () in
  let kernel = Kernel.create eng machine in
  let config =
    { Config.default with Config.timer_strategy = timer; interval; idle_poll = 50e-6 }
  in
  let rt = Runtime.create ~config kernel ~n_workers:machine.Machine.cores in
  let st = dag_state tiles in
  let n = Array.length st.tasks in
  let rec executor () =
    match Queue.take_opt st.ready with
    | Some id ->
        let seconds = seconds_of st machine ~per_core_gflops ~tile_dim id in
        Blas_model.ult_team_compute rt ~kind ~style:mkl ~seconds ~inner;
        complete st (Ult.now ()) id;
        executor ()
    | None ->
        if st.completed < n then begin
          (* BOLT's scheduler: poll politely for new ready tasks. *)
          Ult.compute 2e-6;
          Ult.yield ();
          executor ()
        end
  in
  for i = 0 to outer - 1 do
    ignore (Runtime.spawn rt ~kind ~home:i ~name:(Printf.sprintf "outer%d" i) executor)
  done;
  Runtime.start rt;
  Engine.run ~max_events:2_000_000_000
    ~until:(deadline machine ~per_core_gflops ~tiles ~tile_dim)
    eng;
  let deadlocked = st.completed < n in
  if not deadlocked then Engine.run ~max_events:2_000_000_000 eng (* drain shutdown *);
  (st, deadlocked, Runtime.preempt_signals rt)

let run_iomp machine ~outer ~inner ~per_core_gflops ~tiles ~tile_dim =
  let eng = Engine.create () in
  let kernel = Kernel.create eng machine in
  let oversubscribed = outer * inner > machine.Machine.cores in
  (* The paper's IOMP tuning: KMP_BLOCKTIME=0 and no binding when
     oversubscribed, 200 ms + binding otherwise. *)
  let omp =
    Omp.create kernel
      ~blocktime:(if oversubscribed then 0.0 else 0.2)
      ~bind:(not oversubscribed) ()
  in
  let st = dag_state tiles in
  let n = Array.length st.tasks in
  ignore
    (Kernel.spawn kernel ~name:"main" (fun master ->
         Omp.parallel omp ~master ~nthreads:outer (fun _tid klt ->
             let rec executor () =
               match Queue.take_opt st.ready with
               | Some id ->
                   let seconds = seconds_of st machine ~per_core_gflops ~tile_dim id in
                   Blas_model.omp_team_compute omp ~master:klt ~seconds ~inner;
                   complete st (Kernel.now kernel) id;
                   executor ()
               | None ->
                   if st.completed < n then begin
                     Kernel.compute kernel klt 2e-6;
                     executor ()
                   end
             in
             executor ());
         Omp.shutdown omp));
  Engine.run ~max_events:2_000_000_000
    ~until:(deadline machine ~per_core_gflops ~tiles ~tile_dim)
    eng;
  let deadlocked = st.completed < n in
  if not deadlocked then Engine.run ~max_events:2_000_000_000 eng;
  (st, deadlocked, 0)

let run ?(machine = Machine.skylake) ?(outer = 8) ?(inner = 8) ?(per_core_gflops = 25.0)
    ~tiles ~tile_dim config =
  let st, deadlocked, preemptions =
    match config with
    | Bolt { kind; mkl; timer; interval } ->
        run_bolt machine ~outer ~inner ~per_core_gflops ~tiles ~tile_dim ~kind ~mkl ~timer
          ~interval
    | Iomp { flat } ->
        if flat then
          run_iomp machine ~outer:machine.Machine.cores ~inner:1 ~per_core_gflops ~tiles
            ~tile_dim
        else run_iomp machine ~outer ~inner ~per_core_gflops ~tiles ~tile_dim
  in
  let total = Tiled.total_flops tiles ~b:tile_dim in
  {
    gflops = (if deadlocked then 0.0 else total /. st.finish_time /. 1e9);
    deadlocked;
    tasks = Array.length st.tasks;
    preemptions;
  }
