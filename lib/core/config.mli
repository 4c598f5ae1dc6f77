(** Runtime configuration knobs — each maps to a design choice analyzed
    in the paper (see DESIGN.md §4 for the experiment that sweeps it).

    Build configurations with {!make} (validating smart constructor) or
    by record update on {!default}; {!Runtime.create} runs {!validate}
    on whatever it is given. *)

type timer_strategy =
  | No_timer  (** preemption disabled (pure nonpreemptive runtime) *)
  | Per_worker_creation
      (** one OS timer per worker, armed at creation: fires coincide and
          contend on the kernel signal lock (paper Fig. 4, naive) *)
  | Per_worker_aligned
      (** per-worker timers with phases spread across the interval
          ("timer alignment", paper §3.2.1) *)
  | Per_process_one_to_all
      (** one timer; the leader signals every worker with a preemptive
          thread (paper §3.2.2, unoptimized) *)
  | Per_process_chain
      (** one timer; workers forward the signal one-by-one ("chained
          signals", paper §3.2.2) *)

type suspend_mode =
  | Sigsuspend  (** portable sigsuspend/pthread_kill suspend–resume *)
  | Futex_suspend  (** futex-based suspend–resume (paper §3.3.1) *)

type t = {
  timer_strategy : timer_strategy;
  interval : float;  (** preemption timer interval (s) *)
  suspend_mode : suspend_mode;
  use_local_klt_pool : bool;  (** worker-local KLT pools (paper §3.3.2) *)
  local_pool_capacity : int;
  idle_poll : float;
      (** scheduler spin granularity when out of work: a worker with
          nothing to run burns CPU in [idle_poll]-second polls, looking
          for work after each.  In the simulator an idle poll costs one
          engine event when nothing else is due at its end
          ([Oskern.Kernel.spin]) *)
  autostop : bool;  (** stop workers when no unfinished ULTs remain *)
  metrics_enabled : bool;
      (** record {!Metrics} counters and latency histograms; off by
          default — the disabled path is a single branch per hook *)
  recorder_enabled : bool;
      (** record flight-recorder events ({!Recorder}); off by default —
          same single-branch discipline as [metrics_enabled] *)
  recorder_capacity : int;
      (** events retained per flight-recorder ring (one ring per worker
          plus a global ring) *)
}

val default : t

(** [validate c] returns [c] or raises [Invalid_argument] if a field is
    out of range: non-positive or NaN [interval], negative
    [local_pool_capacity], non-positive or NaN [idle_poll], non-positive
    [recorder_capacity]. *)
val validate : t -> t

(** [make ()] builds a validated configuration; every argument defaults
    to its {!default} value.  (The deprecated [enable_metrics] alias for
    [metrics_enabled] was removed; see docs/INTERNALS.md.)
    @raise Invalid_argument under the same conditions as {!validate}. *)
val make :
  ?timer_strategy:timer_strategy ->
  ?interval:float ->
  ?suspend_mode:suspend_mode ->
  ?use_local_klt_pool:bool ->
  ?local_pool_capacity:int ->
  ?idle_poll:float ->
  ?autostop:bool ->
  ?metrics_enabled:bool ->
  ?recorder_enabled:bool ->
  ?recorder_capacity:int ->
  unit ->
  t

(** Paper §3.4 guidance on choosing a thread type: nonpreemptive when no
    preemption is needed (cheapest); signal-yield when preemption is
    needed and the function is KLT-independent; KLT-switching when it is
    KLT-dependent or unknown (safe default for third-party code). *)
val recommend_kind :
  needs_preemption:bool ->
  klt_dependent:bool option ->
  [ `Nonpreemptive | `Signal_yield | `Klt_switching ]

val timer_strategy_name : timer_strategy -> string
