(* Classic two-list deque: [front] in order, [back] reversed.  All pool
   sizes in the simulator are small, so occasional O(n) rebalances are
   irrelevant. *)

type 'a t = { mutable front : 'a list; mutable back : 'a list }

let create () = { front = []; back = [] }

let length t = List.length t.front + List.length t.back

let push_back t x = t.back <- x :: t.back

let pop_front t =
  match t.front with
  | x :: rest ->
      t.front <- rest;
      Some x
  | [] -> (
      match List.rev t.back with
      | [] -> None
      | x :: rest ->
          t.back <- [];
          t.front <- rest;
          Some x)

let pop_back t =
  match t.back with
  | x :: rest ->
      t.back <- rest;
      Some x
  | [] -> (
      match List.rev t.front with
      | [] -> None
      | x :: rest ->
          t.front <- [];
          t.back <- rest;
          Some x)
