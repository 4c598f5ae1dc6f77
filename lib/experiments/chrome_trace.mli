(** Chrome [trace_events] JSON exporter.

    Converts a decoded flight record ({!Preempt_core.Recorder.events})
    plus an optional {!Preempt_core.Metrics.snapshot} into a file
    loadable in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.
    Timestamps are microseconds, as the format requires.  The output is
    the JSON Object Format: [{"traceEvents": [...]}].

    No external JSON library exists in this environment, so a minimal
    parser ({!Json}) ships here too; the tests use it to validate the
    exporter's output, and it is handy for consuming the files
    programmatically. *)

type arg = A_str of string | A_num of float

type event = {
  name : string;
  cat : string;
  ph : string;  (** "X" complete, "i" instant, "C" counter, "M" metadata *)
  ts : float;  (** microseconds *)
  dur : float option;  (** microseconds; ["X"] events only *)
  pid : int;
  tid : int;
  args : (string * arg) list;
}

(** [of_flight ?metrics evs] renders a decoded flight record
    ({!Preempt_core.Recorder.events} or a loaded dump) as up to three
    Perfetto processes:

    - [pid = 1] ("preempt-sim"), from the simulated kernel's events:
      one lane per core ([tid] = core) whose complete ("X") events name
      the KLT holding it, [klt<id>], from its [klt-dispatch] to its
      next [klt-block], [klt-preempt] or [klt-exit] (see {!Gantt}); an
      instant ("i") lane ([tid] = number of cores) for signal
      deliveries, KLT preemptions, exits and migrations, newidle pulls
      and balance moves; and, given [metrics], one counter ("C") event
      per worker at the end of the record.
    - [pid = 2] ("flight-recorder"): one lane per ULT ([ult<uid>]) with
      its reconstructed lifecycle phases (ready / running / bound /
      blocked) as complete events, plus an instant lane for the
      preemption machinery (timer fires, signal posts, preemption
      requests/completions, steals, KLT remaps).
    - [pid = 3] ("requests"), when the record carries per-request span
      events ([Recorder.ev_req_arrival] .. [ev_req_done], emitted by a
      recorder-armed serving run): one lane per request id with
      queued / running / preempted slices reconstructed from its span
      events.

    Spans still open at the end of the record (or whose closing event
    was overwritten by ring wraparound) extend to the last event's
    timestamp.  An empty record with no metrics yields [[]]. *)
val of_flight :
  ?metrics:Preempt_core.Metrics.snapshot -> Preempt_core.Recorder.event array -> event list

(** Serialize to the Chrome JSON Object Format. *)
val to_json : event list -> string

(** [write ~path events] writes [to_json events] to [path]. *)
val write : path:string -> event list -> unit

(** [validate s] parses [s] and checks it is a trace-event object —
    a JSON object with a ["traceEvents"] array whose elements all carry
    ["ph"] (string), ["ts"] (number), ["pid"] and ["tid"] (numbers).
    Returns the number of events, or a description of the first
    problem. *)
val validate : string -> (int, string) result

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (** Strict-enough JSON parser (objects, arrays, strings with escapes,
      numbers, literals).  Returns [Error msg] with a character offset
      on malformed input. *)
  val parse : string -> (t, string) result

  (** Object field lookup; [None] on missing key or non-object. *)
  val member : string -> t -> t option
end
