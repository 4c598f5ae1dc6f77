(* In-memory spans for traced runs.  The benchmark brackets its calls
   into each layer with [enter]/[leave]; spans are kept in preallocated
   arrays (no allocation, one atomic increment per span) and written out
   once, at the end, as Chrome trace events.  A span's id is taken when
   it opens, so a child can name its parent before the parent closes.
   Spans beyond the capacity are counted and dropped. *)

module CT = Experiments.Chrome_trace

type t = {
  cap : int;
  mutable names : string array;  (** interned span names; index = name id *)
  name : int array;
  parent : int array;
  req : int array;
  tid : int array;
  t0 : int array;
  t1 : int array;
  next : int Atomic.t;
  origin : int;
  mutable extra : CT.event list;  (** lanes from other recorders *)
}

let create ?(cap = 100_000) () =
  {
    cap;
    names = [||];
    name = Array.make cap 0;
    parent = Array.make cap (-1);
    req = Array.make cap (-1);
    tid = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap (-1);
    next = Atomic.make 0;
    origin = Util.now_ns ();
    extra = [];
  }

(* Name ids are handed out before any fiber runs, so [names] is only
   ever written by one domain. *)
let intern t s =
  match Array.find_index (String.equal s) t.names with
  | Some i -> i
  | None ->
      t.names <- Array.append t.names [| s |];
      Array.length t.names - 1

(* Open a span; returns its id, or -1 when the buffer is full. *)
let enter t ~name ~parent ~req =
  let id = Atomic.fetch_and_add t.next 1 in
  if id >= t.cap then -1
  else begin
    t.name.(id) <- name;
    t.parent.(id) <- parent;
    t.req.(id) <- req;
    t.tid.(id) <- (Domain.self () :> int);
    t.t0.(id) <- Util.now_ns ();
    id
  end

let leave t id = if id >= 0 then t.t1.(id) <- Util.now_ns ()

(* A span whose start lies in the past (a request's due time). *)
let enter_at t ~at ~name ~parent ~req =
  let id = enter t ~name ~parent ~req in
  if id >= 0 then t.t0.(id) <- at;
  id

let recorded t = Stdlib.min t.cap (Atomic.get t.next)

let dropped t = Stdlib.max 0 (Atomic.get t.next - t.cap)

(* Durations, in ns, of the closed spans named [name]. *)
let durations t name =
  match Array.find_index (String.equal name) t.names with
  | None -> [||]
  | Some nm ->
      let n = recorded t in
      let ds = ref [] in
      for i = n - 1 downto 0 do
        if t.name.(i) = nm && t.t1.(i) >= 0 then
          ds := float_of_int (t.t1.(i) - t.t0.(i)) :: !ds
      done;
      Array.of_list !ds

(* Per span name: closed spans, their total duration, and their self
   time — each span's duration minus the part of it that the union of
   its direct children covers. *)
type layer = { l_name : string; l_calls : int; l_total_s : float; l_self_s : float }

let layers t =
  let n = recorded t in
  let children = Array.make n [] in
  for i = 0 to n - 1 do
    let p = t.parent.(i) in
    if p >= 0 && p < n && t.t1.(i) >= 0 then children.(p) <- i :: children.(p)
  done;
  let covered i =
    let lo = t.t0.(i) and hi = t.t1.(i) in
    let iv =
      List.map (fun c -> (Stdlib.max lo t.t0.(c), Stdlib.min hi t.t1.(c))) children.(i)
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let total, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = Stdlib.max a reach in
          if b > a then (acc + (b - a), b) else (acc, reach))
        (0, lo) iv
    in
    total
  in
  let k = Array.length t.names in
  let calls = Array.make k 0 and total = Array.make k 0 and self = Array.make k 0 in
  for i = 0 to n - 1 do
    if t.t1.(i) >= 0 then begin
      let nm = t.name.(i) and d = t.t1.(i) - t.t0.(i) in
      calls.(nm) <- calls.(nm) + 1;
      total.(nm) <- total.(nm) + d;
      self.(nm) <- self.(nm) + (d - covered i)
    end
  done;
  List.init k (fun nm ->
      {
        l_name = t.names.(nm);
        l_calls = calls.(nm);
        l_total_s = float_of_int total.(nm) *. 1e-9;
        l_self_s = float_of_int self.(nm) *. 1e-9;
      })
  |> List.filter (fun l -> l.l_calls > 0)

let print_layers t =
  Printf.printf "layer self time (%d span(s) recorded, %d dropped):\n" (recorded t) (dropped t);
  List.iter
    (fun l ->
      Printf.printf "  %-26s %9d call(s)  total %12.6f s  self %12.6f s\n" l.l_name l.l_calls
        l.l_total_s l.l_self_s)
    (layers t)

let events t =
  let n = recorded t in
  let spans =
    List.init n Fun.id
    |> List.filter (fun i -> t.t1.(i) >= 0)
    |> List.map (fun i ->
           {
             CT.name = t.names.(t.name.(i));
             cat = "bench";
             ph = "X";
             ts = float_of_int (t.t0.(i) - t.origin) /. 1e3;
             dur = Some (float_of_int (t.t1.(i) - t.t0.(i)) /. 1e3);
             pid = 1;
             tid = t.tid.(i);
             args =
               [
                 ("id", CT.A_num (float_of_int i));
                 ("parent", CT.A_num (float_of_int t.parent.(i)));
                 ("req", CT.A_num (float_of_int t.req.(i)));
               ];
           })
  in
  let meta =
    {
      CT.name = "process_name";
      cat = "__metadata";
      ph = "M";
      ts = 0.0;
      dur = None;
      pid = 1;
      tid = 0;
      args = [ ("name", CT.A_str "benchmark spans") ];
    }
  in
  (meta :: spans) @ t.extra

(* Write the trace and check that it reads back as a valid one. *)
let write t ~path =
  CT.write ~path (events t);
  CT.validate (Util.read_file path)
