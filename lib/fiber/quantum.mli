(** Adaptive preemption-quantum controller: a {e pure} function from a
    queueing-pressure snapshot to the next per-worker quantum
    (LibPreemptible-style adaptive user-space scheduling).

    Each worker of an adaptive pool ({!Config.make} [~adaptive:true])
    calls {!next} at every expiry of its own quantum, from the
    {!Sched.check} that found the quantum over.  Because the controller
    is a pure function of [stats], its shrink/grow/clamp behaviour is
    pinned deterministically by
    [test/test_serve.ml] with hand-built snapshot sequences — no wall
    clock or domains involved.  Re-exported as [Serve.Quantum]. *)

type stats = {
  q_current : float;  (** the worker's quantum as of the last decision *)
  q_base : float;  (** the configured [preempt_interval] *)
  q_min : float;  (** floor ([Config.quantum_min]) *)
  q_max : float;  (** ceiling ([Config.quantum_max]) *)
  q_depth : int;  (** run-queue depth of the worker's sub-pool *)
  q_members : int;  (** workers serving that sub-pool *)
}

(** The next quantum, always within [[q_min, q_max]]:

    - [q_depth > 0] (loaded): [q_current / (1 + q_depth/q_members)] —
      monotone in queue depth (deeper queue, equal-or-shorter quantum)
      and proportional to the per-worker backlog;
    - [q_depth = 0] (idle): half the gap back toward [q_base] per
      decision, snapping onto [q_base] once within 1%. *)
val next : stats -> float

(** Bound defaults when the config leaves them unset: [base /. 8.] and
    [base] respectively. *)
val default_min : base:float -> float

val default_max : base:float -> float
