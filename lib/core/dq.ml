(* Classic two-list deque: [front] in order, [back] reversed.  All pool
   sizes in the simulator are small, so occasional O(n) rebalances are
   irrelevant. *)

type 'a t = { mutable front : 'a list; mutable back : 'a list; mutable size : int }

let create () = { front = []; back = []; size = 0 }

let length t = t.size

let push_back t x =
  t.back <- x :: t.back;
  t.size <- t.size + 1

let pop_front t =
  match t.front with
  | x :: rest ->
      t.front <- rest;
      t.size <- t.size - 1;
      Some x
  | [] -> (
      match List.rev t.back with
      | [] -> None
      | x :: rest ->
          t.back <- [];
          t.front <- rest;
          t.size <- t.size - 1;
          Some x)

let pop_back t =
  match t.back with
  | x :: rest ->
      t.back <- rest;
      t.size <- t.size - 1;
      Some x
  | [] -> (
      match List.rev t.front with
      | [] -> None
      | x :: rest ->
          t.front <- [];
          t.back <- rest;
          t.size <- t.size - 1;
          Some x)
