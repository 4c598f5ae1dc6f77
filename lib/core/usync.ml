open Types

(* Every primitive here blocks through [park] and readies through
   [wake], which emit a sync-block / sync-wake event on the global ring.
   Metrics folds them into [sync_blocks] / [sync_wakeups], so lost-wakeup
   bugs show up as blocks > wakeups + threads-still-blocked, and a
   decoded flight record shows who was parked on a primitive and who
   released them. *)

let park rt register =
  Ult.suspend (fun self ->
      if rt.observed then emit rt (global_ring rt) Recorder.ev_sync_block self.uid 0;
      register self)

let wake rt (u : ult) =
  if rt.observed then emit rt (global_ring rt) Recorder.ev_sync_wake u.uid 0;
  Runtime.ready rt u

let join rt (u : ult) =
  if u.ustate <> U_finished then
    park rt (fun self -> u.join_waiters <- (fun () -> wake rt self) :: u.join_waiters)

module Mutex = struct
  type t = { rt : Runtime.t; mutable held : bool; waiters : ult Queue.t }

  let create rt = { rt; held = false; waiters = Queue.create () }

  let lock m =
    if not m.held then m.held <- true
    else
      park m.rt (fun self -> Queue.add self m.waiters)

  let try_lock m =
    if m.held then false
    else begin
      m.held <- true;
      true
    end

  let unlock m =
    if not m.held then invalid_arg "Usync.Mutex.unlock: not locked";
    match Queue.take_opt m.waiters with
    | Some next -> wake m.rt next (* ownership handed over *)
    | None -> m.held <- false
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
      List.iter (wake b.rt) (List.rev blocked)
    end
    else
      park b.rt (fun self -> b.blocked <- self :: b.blocked)
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
        List.iter (wake t.rt) (List.rev readers)

  let rec read t =
    match t.value with
    | Some v -> v
    | None ->
        park t.rt (fun self -> t.readers <- self :: t.readers);
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
        wake t.rt u

  let rec recv t =
    match Queue.take_opt t.items with
    | Some v -> v
    | None ->
        park t.rt (fun self -> t.readers <- t.readers @ [ self ]);
        recv t

  let length t = Queue.length t.items
end
