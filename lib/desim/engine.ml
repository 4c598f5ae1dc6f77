type t = {
  mutable clock : float;
  heap : (unit -> unit) Heap.t;
  root_rng : Rng.t;
  mutable processed : int;
  mutable live : int;
  live_names : (int, string) Hashtbl.t; (* pid -> name *)
  mutable next_pid : int;
  mutable quiescence : unit -> string option;
  mutable controller : Choice.t option;
      (* schedule controller: decides tie-breaks among equal-timestamp
         events; [None] = historical FIFO order, zero overhead *)
  mutable observer : (float -> int -> int -> int -> unit) option;
      (* flight-recorder hook: layers above desim (the kernel) report
         int-coded events [(ts, code, a, b)] through it without
         depending on the recorder's module; [None] = one option check
         per emit site, nothing recorded *)
  emeta : (int, string * int) Hashtbl.t;
      (* event seq -> (footprint, parent seq), recorded at push time
         only while a controller is installed.  Parent is the event
         being dispatched when the push happened (-1 for pushes from
         outside the dispatch loop), giving DPOR the creation order;
         footprints label which shared state the event's step touches *)
  mutable cur_seq : int;
      (* seq of the event currently being dispatched in controlled
         mode; -1 outside the dispatch loop or when uncontrolled *)
  mutable in_proc : bool;
      (* a process resumed by [run] is executing (not an event callback,
         not an effect handler): the precondition of [delay]'s run-ahead *)
  mutable until : float;  (* the running [run]'s [until]; [infinity] if none *)
  mutable max_events : int;  (* the running [run]'s [max_events] *)
}

type event = Heap.handle

exception Deadlock of string

let create ?(seed = 42) () =
  {
    clock = 0.0;
    heap = Heap.create ();
    root_rng = Rng.make seed;
    processed = 0;
    live = 0;
    live_names = Hashtbl.create 64;
    next_pid = 0;
    quiescence = (fun () -> None);
    controller = None;
    observer = None;
    emeta = Hashtbl.create 64;
    cur_seq = -1;
    in_proc = false;
    until = infinity;
    max_events = max_int;
  }

let set_controller t c = t.controller <- c

let controller t = t.controller

let set_observer t f = t.observer <- f

let observer t = t.observer

let now t = t.clock

let rng t = t.root_rng

let event_footprint t seq =
  match Hashtbl.find_opt t.emeta seq with Some (fp, _) -> fp | None -> ""

let event_parent t seq =
  match Hashtbl.find_opt t.emeta seq with Some (_, p) -> p | None -> -1

(* Record push-site metadata for the event just pushed.  One [match] on
   [None] when uncontrolled — the default dispatch path stays free of
   the table. *)
let note t fp =
  match t.controller with
  | None -> ()
  | Some _ -> Hashtbl.replace t.emeta (Heap.last_seq t.heap) (fp, t.cur_seq)

let check_future t time =
  if time < t.clock -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.at: time %g is in the past (now %g)" time t.clock)

let at ?(footprint = "") t time f =
  check_future t time;
  let h = Heap.push_handle t.heap (Float.max time t.clock) f in
  note t footprint;
  h

let after ?footprint t dt f =
  if dt < 0.0 then invalid_arg "Engine.after: negative delay";
  at ?footprint t (t.clock +. dt) f

(* Fire-and-forget scheduling: no cancellation handle, no per-event
   allocation beyond the closure itself.  This is the fast path for the
   engine's own process machinery and for kernel events that are never
   cancelled (wakeups, spawn bodies, resumptions). *)
let post_after ?(footprint = "") t dt f =
  if dt < 0.0 then invalid_arg "Engine.post_after: negative delay";
  Heap.push t.heap (t.clock +. dt) f;
  note t footprint

let cancel ev = Heap.cancel ev

let set_quiescence_check t f = t.quiescence <- f

let events_processed t = t.processed

let due_now t = (not (Heap.is_empty t.heap)) && Heap.min_key t.heap <= t.clock

let live_processes t = t.live

let live_process_names t = Hashtbl.fold (fun _ name acc -> name :: acc) t.live_names []

(* ------------------------------------------------------------------ *)
(* Processes.                                                          *)

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Block : (('a -> unit) -> unit) -> 'a Effect.t
  | Self : (t * string) Effect.t
  | SetFp : string -> unit Effect.t

(* Run-ahead: when the resumption a [Delay] would post is the very next
   event [run] dispatches, advance the clock and count the event here
   instead — no effect, no push, no pop.  It is next when no controller
   reorders ties, the wake time [now +. dt] (the float op [post_after]
   does) sorts strictly before every queued key, and [run] would neither
   stop at its [until] nor overflow [max_events] before dispatching it.
   The skipped push takes no sequence number, so every later push's
   sequence number shifts down by one, uniformly: every other pair of
   events keeps its order.  Outside a process ([in_proc] false) the
   effect is performed, so event context still raises
   [Effect.Unhandled]. *)
let delay t dt =
  let time = t.clock +. dt in
  if
    t.in_proc
    && (match t.controller with None -> true | Some _ -> false)
    && dt >= 0.0
    && time <= t.until
    && t.processed < t.max_events
    && (Heap.is_empty t.heap || time < Heap.min_key t.heap)
  then begin
    t.clock <- time;
    t.processed <- t.processed + 1
  end
  else Effect.perform (Delay dt)

let block register = Effect.perform (Block register)

let self_engine () = fst (Effect.perform Self)

let self_name () = snd (Effect.perform Self)

let set_footprint fp = Effect.perform (SetFp fp)

let spawn ?(footprint = "") t name f =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  t.live <- t.live + 1;
  Hashtbl.replace t.live_names pid name;
  (* The process's current footprint: every resumption event it posts
     (spawn body, delay expiry, block wakeup) is labeled with it, so
     [Engine.set_footprint] declares what the *next* step touches. *)
  let fp = ref footprint in
  let finish () =
    t.live <- t.live - 1;
    Hashtbl.remove t.live_names pid
  in
  let open Effect.Deep in
  (* [in_proc] is set at every entry into the process and cleared at
     every exit: suspension (the [Delay] and [Block] handlers) and
     return. *)
  let body () =
    t.in_proc <- true;
    match_with f ()
      {
        retc =
          (fun () ->
            t.in_proc <- false;
            finish ());
        exnc =
          (fun exn ->
            t.in_proc <- false;
            finish ();
            raise exn);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Delay dt ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    t.in_proc <- false;
                    post_after ~footprint:!fp t dt (fun () ->
                        t.in_proc <- true;
                        continue k ()))
            | Block register ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    t.in_proc <- false;
                    let fired = ref false in
                    let resume v =
                      if !fired then
                        invalid_arg
                          (Printf.sprintf
                             "Engine: double resume of process %S" name);
                      fired := true;
                      (* Resumption goes through the heap so wakers never
                         run the woken process on their own stack. *)
                      post_after ~footprint:!fp t 0.0 (fun () ->
                          t.in_proc <- true;
                          continue k v)
                    in
                    register resume)
            | Self -> Some (fun (k : (a, unit) continuation) -> continue k (t, name))
            | SetFp s ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    fp := s;
                    continue k ())
            | _ -> None);
      }
  in
  post_after ~footprint t 0.0 body

let overflow t max_events =
  failwith
    (Printf.sprintf "Engine.run: exceeded %d events at t=%g" max_events t.clock)

(* Under a schedule controller, a tie of n equal-timestamp events is a
   choice point: the controller picks which fires first instead of the
   FIFO default.  The controller sees each alternative's (event id,
   footprint) so a partial-order explorer can key its analysis on event
   identity; the returned seq is the popped event's id. *)
let pop_controlled t c heap =
  let n = Heap.tie_count heap in
  if n <= 1 then begin
    let seq = Heap.top_seq heap in
    (seq, Heap.pop heap)
  end
  else begin
    let seqs = Heap.tie_seqs heap in
    let alts = Array.map (fun s -> (s, event_footprint t s)) seqs in
    let j = Choice.pick ~alts c ~n ~tag:"engine.tie" in
    (seqs.(j), Heap.pop_tie heap j)
  end

(* Dispatch loop.  Cancelled events never surface ([Heap.min_key] skips
   tombstones), so there is no liveness test and — with [min_key]/[pop]
   instead of the option/tuple-returning peek/pop — no allocation per
   dispatched event.  The controller hook is one [match] on [None] per
   event; the controlled arm only runs during schedule exploration. *)
let dispatch t heap time max_events =
  match t.controller with
  | None ->
      let f = Heap.pop heap in
      t.clock <- time;
      t.processed <- t.processed + 1;
      if t.processed > max_events then overflow t max_events;
      f ()
  | Some c ->
      let seq, f = pop_controlled t c heap in
      t.clock <- time;
      t.processed <- t.processed + 1;
      if t.processed > max_events then overflow t max_events;
      t.cur_seq <- seq;
      Choice.fired c ~seq ~fp:(event_footprint t seq);
      f ();
      t.cur_seq <- -1

let run ?until ?(max_events = 50_000_000) t =
  let heap = t.heap in
  t.until <- Option.value until ~default:infinity;
  t.max_events <- max_events;
  (match until with
  | None ->
      while not (Heap.is_empty heap) do
        dispatch t heap (Heap.min_key heap) max_events
      done
  | Some limit ->
      let stop = ref false in
      while (not !stop) && not (Heap.is_empty heap) do
        let time = Heap.min_key heap in
        if time > limit then begin
          t.clock <- limit;
          stop := true
        end
        else dispatch t heap time max_events
      done);
  if Heap.is_empty t.heap && t.live > 0 then
    match t.quiescence () with
    | Some msg -> raise (Deadlock msg)
    | None -> ()
