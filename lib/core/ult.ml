type t = Types.ult

type _ Effect.t +=
  | Compute : float -> unit Effect.t
  | Blocking_io : float -> int Effect.t
  | Yield : unit Effect.t
  | Now : float Effect.t
  | Self : Types.ult Effect.t
  | Suspend : (Types.ult -> unit) -> unit Effect.t

let compute d = Effect.perform (Compute d)

let yield () = Effect.perform Yield

let blocking_io d = Effect.perform (Blocking_io d)

let now () = Effect.perform Now

let self () = Effect.perform Self

let suspend register = Effect.perform (Suspend register)

let name (u : t) = u.Types.uname

let finished (u : t) = u.Types.ustate = Types.U_finished

let blocked (u : t) = u.Types.ustate = Types.U_blocked

let preemptions (u : t) = u.Types.preemptions

