(** Simulated end-to-end runs of the SLATE-style tiled Cholesky kernel —
    the workload behind paper Fig. 7.

    Outer parallelism: [outer] executor threads pull ready DAG tasks;
    inner parallelism: each task runs its BLAS kernel on an [inner]-way
    MKL-style team ({!Blas_model}).  Configurations mirror the paper's
    lines: BOLT (non)preemptive with stock or reverse-engineered MKL,
    and Intel OpenMP nested or flat. *)

type config =
  | Bolt of {
      kind : Preempt_core.Types.thread_kind;
      mkl : Blas_model.barrier_style;
      timer : Preempt_core.Config.timer_strategy;
      interval : float;
    }
  | Iomp of { flat : bool }

type result = {
  gflops : float;
  deadlocked : bool;  (** true when the run hit its watchdog deadline *)
  tasks : int;
  preemptions : int;  (** preemption signals honored (BOLT only) *)
}

val config_name : config -> string

(** [run ~tiles ~tile_dim cfg] executes one full factorization.
    Defaults: [machine] Skylake (56 workers), [outer]/[inner] 8,
    [per_core_gflops] 25. *)
val run :
  ?machine:Oskern.Machine.t ->
  ?outer:int ->
  ?inner:int ->
  ?per_core_gflops:float ->
  tiles:int ->
  tile_dim:int ->
  config ->
  result
