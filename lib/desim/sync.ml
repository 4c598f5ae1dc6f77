module Mutex = struct
  (* [waiters] holds the resume functions of the queued processes, oldest
     first. *)
  type t = { mutable held : bool; waiters : (unit -> unit) Queue.t }

  let create () = { held = false; waiters = Queue.create () }

  let lock t =
    if not t.held then t.held <- true
    else
      (* ownership passed directly by [unlock] *)
      Engine.block (fun resume -> Queue.add resume t.waiters)

  let unlock t =
    if not t.held then invalid_arg "Sync.Mutex.unlock: not locked";
    match Queue.take_opt t.waiters with
    | Some resume -> resume ()
    | None -> t.held <- false

  let waiters t = Queue.length t.waiters
end
