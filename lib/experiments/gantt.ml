type segment = { from_t : float; name : string }

type t = { cores : int; lanes : segment list array (* newest first *) }

module R = Preempt_core.Recorder

(* Occupancy changes on a dispatch; a block, preempt or exit of the
   current occupant frees the core until the next dispatch.  Only the
   dispatch names its core reliably (a block does not), so the release
   codes are matched by KLT id. *)
let of_trace (evs : R.event array) =
  let cores =
    Array.fold_left
      (fun n (e : R.event) -> if e.e_code = R.ev_klt_dispatch then max n (e.e_b + 1) else n)
      0 evs
  in
  let lanes = Array.make cores [] in
  let current = Array.make cores (-1) in
  Array.iter
    (fun (e : R.event) ->
      let c = e.e_code in
      if c = R.ev_klt_dispatch then begin
        lanes.(e.e_b) <- { from_t = e.e_ts; name = Printf.sprintf "klt%d" e.e_a } :: lanes.(e.e_b);
        current.(e.e_b) <- e.e_a
      end
      else if c = R.ev_klt_block || c = R.ev_klt_preempt || c = R.ev_klt_exit then
        Array.iteri
          (fun core k ->
            if k = e.e_a then begin
              lanes.(core) <- { from_t = e.e_ts; name = "" } :: lanes.(core);
              current.(core) <- -1
            end)
          current)
    evs;
  { cores; lanes }

let cores t = t.cores

let spans t ~t_end =
  let out = ref [] in
  for c = 0 to t.cores - 1 do
    let close name t0 t1 = if name <> "" && t1 >= t0 then out := (c, name, t0, t1) :: !out in
    let rec go cur = function
      | [] -> ( match cur with Some (n, t0) -> close n t0 (Float.max t_end t0) | None -> ())
      | seg :: rest ->
          (match cur with Some (n, t0) -> close n t0 seg.from_t | None -> ());
          go (if seg.name = "" then None else Some (seg.name, seg.from_t)) rest
    in
    go None (List.rev t.lanes.(c))
  done;
  List.rev !out

let occupant t ~core ~time =
  if core < 0 || core >= t.cores then None
  else
    let rec find = function
      | [] -> None
      | seg :: rest -> if seg.from_t <= time then Some seg.name else find rest
    in
    match find t.lanes.(core) with Some "" | None -> None | Some n -> Some n

let render ?(width = 72) ~t0 ~t1 t =
  if t1 <= t0 then invalid_arg "Gantt.render: empty window";
  let names = Hashtbl.create 16 in
  let glyph_of name =
    match Hashtbl.find_opt names name with
    | Some g -> g
    | None ->
        let glyphs = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789" in
        let g = glyphs.[Hashtbl.length names mod String.length glyphs] in
        Hashtbl.add names name g;
        g
  in
  let buf = Buffer.create (t.cores * (width + 12)) in
  Buffer.add_string buf (Printf.sprintf "t = %.6f .. %.6f s\n" t0 t1);
  for c = 0 to t.cores - 1 do
    Buffer.add_string buf (Printf.sprintf "core%-3d|" c);
    for b = 0 to width - 1 do
      let time = t0 +. ((t1 -. t0) *. (float_of_int b +. 0.5) /. float_of_int width) in
      match occupant t ~core:c ~time with
      | Some name -> Buffer.add_char buf (glyph_of name)
      | None -> Buffer.add_char buf '.'
    done;
    Buffer.add_char buf '\n'
  done;
  let legend =
    Hashtbl.fold (fun name g acc -> (g, name) :: acc) names []
    |> List.sort compare
  in
  List.iter (fun (g, name) -> Buffer.add_string buf (Printf.sprintf "  %c = %s\n" g name)) legend;
  Buffer.contents buf
