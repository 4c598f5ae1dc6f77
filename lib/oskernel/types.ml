(* Shared mutable records of the simulated kernel.  This module is
   internal to the [oskern] library; the public face is [Kernel]. *)

type klt_state =
  | Created
  | Runnable
  | Running
  | Blocked of string  (* reason, e.g. "futex", "sleep", "pause" *)
  | Zombie

type interrupt_reason =
  | Slice_end  (* CFS time slice expired with other runnable KLTs *)
  | Signal_pending  (* a deliverable signal arrived *)
  | Wake_preempt  (* a woken KLT with smaller vruntime preempts us *)

type sched_policy =
  | Sched_other  (* CFS: fair time sharing, nice-weighted *)
  | Sched_fifo of int  (* POSIX real-time FIFO; higher value = higher priority *)

(* The floats a KLT's accounting writes per event.  An all-float record
   is stored flat, so a store into one of its fields is a plain unboxed
   write: no boxed float allocated, no [caml_modify] on the long-lived
   [klt].  In [klt] itself each such store would allocate a box. *)
type klt_acct = {
  mutable vruntime : float;
  mutable cpu_time : float;
  mutable exec_start : float;
  mutable cpu_since_move : float;
      (* CPU accumulated since the last core migration: proxies how much
         cache state the thread would lose by moving *)
  mutable kfootprint : float;
      (* relative working set in [0,1]: 1 for threads whose data lives
         with them (OMP threads), ~0 for thin carrier KLTs of an M:N
         runtime (the ULT layer charges its own data movement) *)
  mutable pending_overhead : float;
      (* dispatch / migration / timer costs charged at the next compute *)
}

type klt = {
  kid : int;
  kname : string;
  mutable state : klt_state;
  mutable nice : int;
  mutable policy : sched_policy;
  kacct : klt_acct;
  mutable affinity : Cpuset.t;
  mutable core : int option;  (* core id while Running *)
  mutable last_core : int;
  mutable pending_signals : int list;  (* FIFO: oldest first *)
  mutable sigmask : int list;  (* blocked signal numbers (with multiplicity) *)
  mutable on_dispatch : (unit -> unit) option;
  mutable on_interrupt : (interrupt_reason -> unit) option;
  mutable on_blocked_signal : (unit -> unit) option;
  mutable exit_waiters : (unit -> unit) list;
  mutable wakeups : int;
}

type core_state = {
  cid : int;
  mutable current : klt option;
  mutable queued : klt list;  (* runnable, not running; sorted by vruntime *)
  mutable slice_ev : Desim.Engine.event option;
  mutable last_klt : int;  (* last KLT that ran here, for switch cost *)
}

(* CFS load weight of a nice level.  [charge] divides by it on every
   accounting step, so nice -20..19 read a table built from the same
   expression (same bits) instead of calling [pow] each time. *)
let nice_weight =
  let weight nice = 1024.0 /. (1.25 ** float_of_int nice) in
  let table = Array.init 40 (fun i -> weight (i - 20)) in
  fun nice -> if nice >= -20 && nice <= 19 then table.(nice + 20) else weight nice
