(** In-situ analysis with a LAMMPS-style MD timeline (paper Fig. 9).

    Each of [steps] timesteps runs a parallel force phase on all
    workers, then a sequential MPI-communication gap on the main thread;
    every [analysis_interval] steps, 55 analysis threads are spawned to
    process a snapshot concurrently with the ongoing simulation.
    Simulation threads should have priority: analysis ought to run only
    in the gaps.

    Four configurations reproduce the paper's lines: Pthreads-style 1:1
    threads without/with [nice +19] analysis, and Argobots-style M:N
    threads without/with scheduler priority (where analysis threads are
    preemptive signal-yield threads driven by a 1 ms per-process chained
    timer). *)

type runtime_kind = Pthreads | Argobots

type config = { rk : runtime_kind; priority : bool }

type result = {
  time : float;  (** makespan: simulation and all analysis finished *)
  idle_frac : float;  (** fraction of core time left idle *)
}

val config_name : config -> string

(** [run ~atoms ~steps ~analysis_interval cfg] — [atoms] is the per-node
    atom count; [analysis_interval = None] disables analysis (the
    baseline). *)
val run :
  ?machine:Oskern.Machine.t ->
  ?workers:int ->
  atoms:float ->
  steps:int ->
  analysis_interval:int option ->
  config ->
  result

(** The paper's §4.3 "what if we had root" ablation: like the Pthreads
    configuration, but simulation threads run under SCHED_FIFO so
    analysis (CFS) can never delay them.  Strictly stronger than
    nice-based priority. *)
val run_pthreads_fifo :
  ?machine:Oskern.Machine.t ->
  ?workers:int ->
  atoms:float ->
  steps:int ->
  analysis_interval:int option ->
  unit ->
  result
