module Waitq = struct
  type 'a waiter = { mutable resume : ('a option -> unit) option }

  type 'a t = 'a waiter Queue.t

  let create () = Queue.create ()

  let length q = Queue.length q

  let wait q =
    let result =
      Engine.block (fun resume ->
          Queue.add { resume = Some (fun v -> resume v) } q)
    in
    match result with
    | Some v -> v
    | None -> assert false (* plain [wait] is never cancelled *)

  let wait_cancellable q ~cancel_ref =
    Engine.block (fun resume ->
        let w = { resume = Some resume } in
        Queue.add w q;
        (cancel_ref :=
           fun () ->
             match w.resume with
             | Some r ->
                 w.resume <- None;
                 r None
             | None -> ()))

  (* Waiters whose [resume] is [None] were cancelled; skip them. *)
  let rec wake_one q v =
    match Queue.take_opt q with
    | None -> false
    | Some w -> (
        match w.resume with
        | Some r ->
            w.resume <- None;
            r (Some v);
            true
        | None -> wake_one q v)

  let wake_all q v =
    let n = ref 0 in
    while wake_one q v do
      incr n
    done;
    !n
end

module Mutex = struct
  type t = { mutable held : bool; queue : unit Waitq.t }

  let create () = { held = false; queue = Waitq.create () }

  let lock t =
    if not t.held then t.held <- true
    else Waitq.wait t.queue (* ownership passed directly by [unlock] *)

  let try_lock t =
    if t.held then false
    else begin
      t.held <- true;
      true
    end

  let unlock t =
    if not t.held then invalid_arg "Sync.Mutex.unlock: not locked";
    if not (Waitq.wake_one t.queue ()) then t.held <- false

  let locked t = t.held

  let waiters t = Waitq.length t.queue
end

module Ivar = struct
  type 'a t = { mutable value : 'a option; queue : 'a Waitq.t }

  let create () = { value = None; queue = Waitq.create () }

  let fill t v =
    match t.value with
    | Some _ -> invalid_arg "Sync.Ivar.fill: already filled"
    | None ->
        t.value <- Some v;
        ignore (Waitq.wake_all t.queue v)

  let read t = match t.value with Some v -> v | None -> Waitq.wait t.queue

  let peek t = t.value

  let is_filled t = Option.is_some t.value
end

module Semaphore = struct
  type t = { mutable count : int; queue : unit Waitq.t }

  let create n =
    if n < 0 then invalid_arg "Sync.Semaphore.create: negative";
    { count = n; queue = Waitq.create () }

  let acquire t =
    if t.count > 0 then t.count <- t.count - 1 else Waitq.wait t.queue

  let release t = if not (Waitq.wake_one t.queue ()) then t.count <- t.count + 1
end
