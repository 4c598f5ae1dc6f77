(* The checker's stand-in for [Stdlib.Atomic] inside this library, so
   that the copies of lib/fiber's deque.ml and scheduler.ml run under a
   schedule controller.  Every access declares the cell it touches as
   its footprint and then yields at [Engine.delay 0]: each atomic access
   is one DPOR schedule point, and two accesses to one cell are
   dependent.  Plain code between two accesses (the deque's array-slot
   reads and writes) runs inside the step of the access before it.

   A schedule runs on one domain and builds its cells afresh, so a cell
   is a plain mutable field.  Cells are numbered in creation order from
   the last [reset], which each program calls first: the same program
   names the same cells in every schedule and every replay. *)

open Desim

type 'a t = { mutable v : 'a; atom : string }

type cells = { mutable next : int; mutable torn_cas : bool }

let cells = Domain.DLS.new_key (fun () -> { next = 0; torn_cas = false })

(* [torn_cas] splits [compare_and_set] into a read, a schedule point
   and a write: a seeded bug the checker must catch, which shows that
   the accesses still yield. *)
let reset ~torn_cas =
  let c = Domain.DLS.get cells in
  c.next <- 0;
  c.torn_cas <- torn_cas

(* No schedule point: a cell is made before another process sees it. *)
let make v =
  let c = Domain.DLS.get cells in
  let atom = "atomic" ^ string_of_int c.next in
  c.next <- c.next + 1;
  { v; atom }

let step t =
  Engine.set_footprint t.atom;
  Engine.delay (Engine.self_engine ()) 0.0

let get t =
  step t;
  t.v

let set t v =
  step t;
  t.v <- v

let fetch_and_add t n =
  step t;
  let v = t.v in
  t.v <- v + n;
  v

let compare_and_set t seen v =
  step t;
  t.v == seen
  && begin
       if (Domain.DLS.get cells).torn_cas then step t;
       t.v <- v;
       true
     end
