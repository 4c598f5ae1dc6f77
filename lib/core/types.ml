(* Shared mutable records of the M:N runtime, and its instrumentation
   [emit].  Internal to [preempt_core]; the public faces are [Runtime],
   [Ult] and [Usync]. *)

open Oskern

type thread_kind =
  | Nonpreemptive  (* classic M:N thread: explicit yields only *)
  | Signal_yield  (* preemptible; must be KLT-independent (paper §3.1.1) *)
  | Klt_switching  (* preemptible and KLT-dependent-safe (paper §3.1.2) *)

type ustate =
  | U_ready  (* in a pool, [work] set *)
  | U_running
  | U_bound  (* preempted via KLT-switching; its KLT sleeps bound to it *)
  | U_blocked  (* suspended on user-level sync; some waker holds it *)
  | U_finished

type ult = {
  uid : int;
  uname : string;
  kind : thread_kind;
  mutable priority : int;  (* smaller = more urgent (priority scheduler) *)
  footprint : float;
      (* relative cache working set in [0,1]: scales the refill penalty
         when the thread resumes on a different worker (a pure spin loop
         is ~0, a tile kernel ~1) *)
  mutable ustate : ustate;
  mutable work : (unit -> unit) option;  (* start thunk or captured continuation *)
  mutable cur_worker : worker option;
  mutable home : int;  (* pool index this thread belongs to *)
  mutable last_worker : int;  (* for the ULT migration cache penalty *)
  mutable bound_klt : Kernel.klt option;
  mutable bound_wake : (Kernel.klt -> worker -> unit) option;
      (* args: the waking KLT (charged for the wake syscall) and the
         worker the thread resumes on *)
  mutable resume_worker : worker option;
  mutable join_waiters : (unit -> unit) list;
  mutable preemptions : int;
  mutable ult_cpu_since_move : float;  (* cache hotness on the current worker *)
}

and worker = {
  rank : int;
  mutable wklt : Kernel.klt option;
  mutable current : ult option;
  mutable preempt_request : bool;
  mutable measure_preempt : bool;  (* pending Table-1 style latency sample *)
  mutable active : bool;  (* thread packing: inactive workers suspend *)
  mutable wake_fut : Kernel.Futex.t option;  (* set while suspended *)
  q_main : ult Dq.t;  (* primary pool (FIFO / packing pool) *)
  q_aux : ult Dq.t;  (* secondary pool (priority scheduler: analysis LIFO) *)
  local_klts : Kernel.klt Queue.t;  (* worker-local KLT pool *)
  w_rng : Desim.Rng.t;
  mutable preempts_taken : int;
}

type scheduler = {
  next : rt -> worker -> ult option;
  on_ready : rt -> ult -> unit;  (* freshly spawned or unblocked *)
  on_preempted : rt -> worker -> ult -> unit;
  on_yielded : rt -> worker -> ult -> unit;
}

and parking = {
  pfut : Kernel.Futex.t;
  mutable pmsg : [ `Attach of worker | `Exit ] option;
}

and rt = {
  kernel : Kernel.t;
  cfg : Config.t;
  workers : worker array;
  mutable sched : scheduler;
  mutable n_active : int;
  global_klts : Kernel.klt Queue.t;
  parked : parking Itab.t;  (* klt id -> mailbox *)
  klt_pinned : int Itab.t;  (* klt id -> core it is pinned to *)
  worker_of_klt : worker Itab.t;
  mutable creator_fut : Kernel.Futex.t option;
  mutable creator_requests : int;
  mutable klts_created : int;
  mutable unfinished : int;
  mutable stopping : bool;
  mutable started : bool;
  mutable cur_interval : float;  (* live preemption interval *)
  mutable timers : Kernel.Timer.t list;
  (* Per-worker floats written on every idle poll or preemption, indexed
     by rank: float arrays are stored flat, so a store boxes nothing
     (see [Oskern.Types.klt_acct]), and each is one allocation per
     runtime rather than one per worker. *)
  idle_time : float array;  (* time spent spinning with no work *)
  preempt_post_time : float array;  (* when the preempting signal was posted *)
  signal_posted : Itab.Float.t;  (* klt id -> post time; NaN = none *)
  interrupt_stats : Desim.Stats.t;  (* Fig. 4 metric *)
  preempt_latency_stats : Desim.Stats.t;  (* Table 1 metric *)
  mutable next_uid : int;
  mutable main_queued : int;
      (* threads in all workers' [q_main], kept by [Sched_ws] and
         [Sched_priority] (which read it to skip an empty steal sweep);
         [Sched_packing] neither keeps nor reads it *)
  mutable preempt_signals : int;
  mutable klt_switches : int;
  metrics : Metrics.t;  (* per-worker counters + latency histograms *)
  recorder : Recorder.t;  (* flight recorder: per-worker event rings *)
  mutable observed : bool;  (* recorder or metrics on: the guard of every [emit] *)
}

(* The one instrumentation stream: each runtime event is one [emit],
   behind one [if rt.observed] at its site, so a run with the recorder
   and metrics both off pays one boolean load.  [emit] reads the clock
   once, writes the event to ring [ring] of the flight recorder and
   folds it into Metrics, each when that one is on.  Worker rings are
   indexed by rank; [global_ring] takes events that can fire outside
   any worker context. *)
let emit rt ring code a b =
  let ts = Oskern.Kernel.now rt.kernel in
  Recorder.emit rt.recorder ring ts code a b;
  Metrics.fold rt.metrics ~posted:rt.preempt_post_time ring ts code a b

let global_ring rt = Recorder.global_ring rt.recorder

let sig_timer = 34 (* leader timer signal (SIGRTMIN) *)

let sig_forward = 35 (* forwarded preemption signal *)

let sig_resume = 36 (* sigsuspend-mode resume signal *)
