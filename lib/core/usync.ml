open Types

(* Every primitive here reports to the metrics layer (when enabled):
   a thread that blocks bumps [sync_blocks], a thread that is readied
   by a release/handoff/broadcast bumps [sync_wakeups].  Lost-wakeup
   bugs show up as blocks > wakeups + threads-still-blocked.  The same
   sites feed the flight recorder (sync-block / sync-wake events on the
   global ring), so a decoded flight record shows who was parked on a
   primitive and who released them. *)

let obs rt code (u : ult) =
  if rt.recorder.Recorder.on then
    Recorder.emit rt.recorder
      (Recorder.global_ring rt.recorder)
      (Oskern.Kernel.now rt.kernel) code u.uid 0

let join rt (u : ult) =
  if u.ustate <> U_finished then
    Ult.suspend (fun self ->
        Metrics.incr_sync_blocks rt.metrics;
        obs rt Recorder.ev_sync_block self;
        u.join_waiters <-
          (fun () ->
            Metrics.incr_sync_wakeups rt.metrics;
            obs rt Recorder.ev_sync_wake self;
            Runtime.ready rt self)
          :: u.join_waiters)

module Mutex = struct
  type t = { rt : Runtime.t; mutable held : bool; waiters : ult Queue.t }

  let create rt = { rt; held = false; waiters = Queue.create () }

  let lock m =
    if not m.held then m.held <- true
    else
      Ult.suspend (fun self ->
          Metrics.incr_sync_blocks m.rt.metrics;
          obs m.rt Recorder.ev_sync_block self;
          Queue.add self m.waiters)

  let try_lock m =
    if m.held then false
    else begin
      m.held <- true;
      true
    end

  let unlock m =
    if not m.held then invalid_arg "Usync.Mutex.unlock: not locked";
    match Queue.take_opt m.waiters with
    | Some next ->
        Metrics.incr_sync_wakeups m.rt.metrics;
        obs m.rt Recorder.ev_sync_wake next;
        Runtime.ready m.rt next (* ownership handed over *)
    | None -> m.held <- false

  let locked m = m.held
end

module Barrier = struct
  type t = {
    rt : Runtime.t;
    parties : int;
    mutable arrived : int;
    mutable blocked : ult list;
  }

  let create rt parties =
    if parties <= 0 then invalid_arg "Usync.Barrier.create: parties <= 0";
    { rt; parties; arrived = 0; blocked = [] }

  let wait b =
    b.arrived <- b.arrived + 1;
    if b.arrived = b.parties then begin
      let blocked = b.blocked in
      b.blocked <- [];
      b.arrived <- 0;
      List.iter
        (fun u ->
          Metrics.incr_sync_wakeups b.rt.metrics;
          obs b.rt Recorder.ev_sync_wake u;
          Runtime.ready b.rt u)
        (List.rev blocked)
    end
    else
      Ult.suspend (fun self ->
          Metrics.incr_sync_blocks b.rt.metrics;
          obs b.rt Recorder.ev_sync_block self;
          b.blocked <- self :: b.blocked)
end

module Ivar = struct
  type 'a t = { rt : Runtime.t; mutable value : 'a option; mutable readers : ult list }

  let create rt = { rt; value = None; readers = [] }

  let fill t v =
    match t.value with
    | Some _ -> invalid_arg "Usync.Ivar.fill: already filled"
    | None ->
        t.value <- Some v;
        let readers = t.readers in
        t.readers <- [];
        List.iter
          (fun u ->
            Metrics.incr_sync_wakeups t.rt.metrics;
            obs t.rt Recorder.ev_sync_wake u;
            Runtime.ready t.rt u)
          (List.rev readers)

  let rec read t =
    match t.value with
    | Some v -> v
    | None ->
        Ult.suspend (fun self ->
            Metrics.incr_sync_blocks t.rt.metrics;
            obs t.rt Recorder.ev_sync_block self;
            t.readers <- self :: t.readers);
        read t

  let peek t = t.value
end

module Channel = struct
  type 'a t = { rt : Runtime.t; items : 'a Queue.t; mutable readers : ult list }

  let create rt = { rt; items = Queue.create (); readers = [] }

  let send t v =
    Queue.add v t.items;
    match t.readers with
    | [] -> ()
    | u :: rest ->
        t.readers <- rest;
        Metrics.incr_sync_wakeups t.rt.metrics;
        obs t.rt Recorder.ev_sync_wake u;
        Runtime.ready t.rt u

  let rec recv t =
    match Queue.take_opt t.items with
    | Some v -> v
    | None ->
        Ult.suspend (fun self ->
            Metrics.incr_sync_blocks t.rt.metrics;
            obs t.rt Recorder.ev_sync_block self;
            t.readers <- t.readers @ [ self ])
        ;
        recv t

  let length t = Queue.length t.items
end
