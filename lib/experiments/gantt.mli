(** ASCII Gantt charts of simulated core occupancy, reconstructed from
    the kernel events of a flight record.

    A KLT holds a core from its [klt-dispatch] to its next [klt-block],
    [klt-preempt] or [klt-exit] ({!Oskern.Kernel}'s observer codes, as
    the runtime's recorder stores them).  Each core is a lane; each time
    bucket shows a glyph identifying the KLT that occupied the core, or
    '.' when idle.  KLTs are named [klt<id>]; a legend maps glyphs to
    names. *)

type t

(** [of_trace events] replays the kernel events of a decoded flight
    record ({!Preempt_core.Recorder.events} or a loaded dump) into
    per-core timelines.  The number of cores is one more than the
    highest core a [klt-dispatch] names. *)
val of_trace : Preempt_core.Recorder.event array -> t

(** Number of core lanes. *)
val cores : t -> int

(** [render ~t0 ~t1 ~width t] draws the window [t0, t1) in [width]
    buckets per lane. *)
val render : ?width:int -> t0:float -> t1:float -> t -> string

(** The KLT (if any) occupying [core] at [time] — for tests. *)
val occupant : t -> core:int -> time:float -> string option

(** [spans t ~t_end] flattens the lanes into occupied intervals
    [(core, klt_name, t0, t1)], time-ascending within each core.  A span
    still open at the end of the record is closed at [t_end] (clamped so
    [t1 >= t0]).  This is the input of the Chrome trace exporter's core
    lanes. *)
val spans : t -> t_end:float -> (int * string * float * float) list
