(* Exports lint (dune alias @exports, part of @runtest): every value a
   lib module exports must have a caller, every record field a lib
   module declares a reader, and every variant constructor a builder,
   outside the tests.

   It reads the typed trees dune writes (.cmt for an implementation,
   .cmti for an interface) under lib, bin, bench, examples and test.
   The compiler has resolved every name in them, so aliases, opens,
   includes and nested modules need no rule here.

   - The values are each [val] of a lib .mli, nested signatures
     included, and each value of a lib .ml without one.  A value is
     called when some unit under lib, bin, bench or examples names it:
     an identifier whose declaration is the value's (the same
     [Shape.Uid]).  A use in the value's own unit counts only for a unit
     without .mli, and only outside the value's own binding.  A value
     that a facade re-exports ([Fiber] includes [Sched]) is one value,
     reported under the module that defines it.
   - A record field of a type declared in a lib .ml is read by
     [r.field] or by a record pattern, not by a record literal, a
     [{ r with ... }] copy or [r.field <- v].
   - A variant constructor is built by an expression that names it, not
     by a pattern.
   Fields and constructors are keyed by compilation unit, nested module
   path, type name and name, so that a use through the type's .mli
   counts and same-named types in sibling modules stay apart.

   An item whose only users are tests is listed in exports_allow.txt as
   "Module.Sub.name  test/a.ml, test/b.ml: what it checks", a field as
   "Module.Sub.type.field" and a constructor as "Module.Sub.type.Ctor".  Each
   named test must exist and use the item.  A field line may name no
   test: it keeps a field that is never read, such as cache-line
   padding.  An entry whose item has a user, or whose value line names
   no test, is stale, so the list shrinks with the code.

     exports_check.exe [ROOT] [ALLOW]   (defaults: "." and
                                         ROOT/test/exports_allow.txt)

   ROOT is a dune build context such as _build/default, built at least
   as far as its .cmt and .cmti files. *)

open Typedtree

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The typed trees under [root]/[dir], each with its source path
   relative to [root].  Dune's object dirs are hidden dirs below the
   source dir.  Under test only the tests' own objects are read, not the
   lint's fixture trees. *)
let rec compiled root ~src dir =
  let abs = Filename.concat root dir in
  if not (Sys.file_exists abs) then []
  else
    Array.to_list (Sys.readdir abs)
    |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory (Filename.concat root p) then
             if e.[0] = '.' || dir <> src then compiled root ~src p
             else if src = "test" then []
             else compiled root ~src:p p
           else if Filename.check_suffix e ".cmt" || Filename.check_suffix e ".cmti" then
             let c = Cmt_format.read_cmt (Filename.concat root p) in
             match c.cmt_sourcefile with
             | Some f when Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" ->
                 [ (Filename.concat src (Filename.basename f), c) ]
             | _ -> []
           else [])

(* The implementations among them: source path, unit name, tree. *)
let impls root dirs =
  List.concat_map (fun d -> compiled root ~src:d d) dirs
  |> List.filter_map (fun (f, c) ->
         match c.Cmt_format.cmt_annots with
         | Implementation str -> Some (f, c.cmt_modname, str)
         | _ -> None)

(* [Fiber__Sched] is the module [Sched] of library [fiber]. *)
let display unit =
  let rec from i =
    if i < 2 then unit
    else if String.sub unit (i - 2) 2 = "__" then String.sub unit i (String.length unit - i)
    else from (i - 1)
  in
  from (String.length unit)

let unit_of (uid : Shape.Uid.t) = match uid with Item { comp_unit; _ } -> comp_unit | _ -> ""

type kind = Value | Field | Ctor

(* One key space for the three kinds: values by uid, fields and
   constructors by unit and their name under its nested modules
   ("Mutex.t.rt"), so that a use through the type's .mli counts. *)
let value_key uid = Format.asprintf "v %a" Shape.Uid.print uid
let label_key kind unit name = String.concat " " [ (if kind = Field then "f" else "c"); unit; name ]

(* What an implementation uses, each key with where, and the extent of
   each of its value bindings.  [label] gives the key of a field or
   constructor by the uid of its declaration. *)
let uses ~label str =
  let used = ref [] and binds = ref [] in
  let add k (loc : Location.t) = used := (k, loc) :: !used in
  let add_label uid loc = Option.iter (fun k -> add k loc) (label uid) in
  let open Tast_iterator in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> add (value_key vd.val_uid) e.exp_loc
    | Texp_field (_, _, l) -> add_label l.lbl_uid e.exp_loc
    | Texp_construct (_, c, _) -> add_label c.cstr_uid e.exp_loc
    | _ -> ());
    default_iterator.expr it e
  in
  let pat : type k. iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_record (fields, _) -> List.iter (fun (_, l, _) -> add_label l.Types.lbl_uid p.pat_loc) fields
    | _ -> ());
    default_iterator.pat it p
  in
  let value_binding it vb =
    binds := vb.vb_loc :: !binds;
    default_iterator.value_binding it vb
  in
  let it = { default_iterator with expr; pat; value_binding } in
  it.structure it str;
  (!used, !binds)

(* An item checked, with the file that declares it.  [bound] is where a
   value of a unit without .mli is defined; a use in that unit outside
   it counts.  A unit's .ml and .mli number their uids apart, so in a
   unit with .mli its own uses cannot be matched to a value and none
   counts. *)
type item = {
  kind : kind;
  key : string;
  name : string;  (* "Module.Sub.name", "Module.Sub.type.field" *)
  file : string;
  unit : string;
  bound : Location.t option;
}

(* The values a lib unit defines, in signature order; a value another
   unit defines and this one includes is left to that unit. *)
let values file unit ~mli sg =
  let rec go path sg =
    List.concat_map
      (function
        | Types.Sig_value (id, vd, _) when unit_of vd.val_uid = unit ->
            [ { kind = Value; key = value_key vd.val_uid; file; unit;
                name = String.concat "." (path @ [ Ident.name id ]);
                bound = (if mli then None else Some vd.val_loc) } ]
        | Sig_module (id, _, { md_type = Mty_signature s; _ }, _, _) -> go (path @ [ Ident.name id ]) s
        | _ -> [])
      sg
  in
  go [ display unit ] sg

(* The record fields and variant constructors a typed tree declares,
   each with the uid of its declaration and its name under the nested
   modules. *)
let labels walk =
  let found = ref [] and path = ref [] in
  let open Tast_iterator in
  let type_declaration it td =
    let add kind uid id =
      let name = List.rev_append !path [ td.typ_name.txt; Ident.name id ] in
      found := (kind, uid, String.concat "." name) :: !found
    in
    (match td.typ_type.type_kind with
    | Type_record (lds, _) -> List.iter (fun (l : Types.label_declaration) -> add Field l.ld_uid l.ld_id) lds
    | Type_variant (cds, _) ->
        List.iter (fun (c : Types.constructor_declaration) -> add Ctor c.cd_uid c.cd_id) cds
    | _ -> ());
    default_iterator.type_declaration it td
  in
  let nested name visit it x =
    path := Option.value name ~default:"_" :: !path;
    visit it x;
    path := List.tl !path
  in
  let module_binding it mb = nested mb.mb_name.txt default_iterator.module_binding it mb in
  let module_declaration it md = nested md.md_name.txt default_iterator.module_declaration it md in
  walk { default_iterator with type_declaration; module_binding; module_declaration };
  List.rev !found

(* "Module.name  test/a.ml, test/b.ml: why" lines; # starts a comment.
   The files before the ':' are the tests that use the item. *)
let allow_lines path =
  (if Sys.file_exists path then String.split_on_char '\n' (read_file path) else [])
  |> List.filter_map (fun line ->
         match String.trim line with
         | "" -> None
         | l when l.[0] = '#' -> None
         | l ->
             let name, rest =
               match String.index_opt l ' ' with
               | None -> (l, "")
               | Some i -> (String.sub l 0 i, String.sub l i (String.length l - i))
             in
             let tests =
               match String.index_opt rest ':' with
               | None -> []
               | Some i ->
                   String.sub rest 0 i
                   |> String.split_on_char ' '
                   |> List.concat_map (String.split_on_char ',')
                   |> List.filter (( <> ) "")
             in
             let test_file f =
               String.starts_with ~prefix:"test/" f && Filename.check_suffix f ".ml"
             in
             Some (name, if List.for_all test_file tests then tests else []))

let within (outer : Location.t) (l : Location.t) =
  outer.loc_start.pos_cnum <= l.loc_start.pos_cnum && l.loc_end.pos_cnum <= outer.loc_end.pos_cnum

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let allow_path =
    if Array.length Sys.argv > 2 then Sys.argv.(2)
    else Filename.concat root "test/exports_allow.txt"
  in
  let mlis = Hashtbl.create 64 in
  List.iter
    (fun (f, c) ->
      match c.Cmt_format.cmt_annots with
      | Interface sg -> Hashtbl.replace mlis (Filename.remove_extension f) (f, sg)
      | _ -> ())
    (compiled root ~src:"lib" "lib");
  let mli (f, _, _) = Hashtbl.find_opt mlis (Filename.remove_extension f) in
  let with_mli, bare = List.partition (fun u -> mli u <> None) (impls root [ "lib" ]) in
  let exported =
    List.concat_map
      (fun ((_, unit, _) as u) ->
        let f, sg = Option.get (mli u) in
        values f unit ~mli:true sg.sig_type)
      with_mli
  in
  let lets = List.concat_map (fun (f, unit, str) -> values f unit ~mli:false str.str_type) bare in
  (* A unit's own .ml sees the label uids of its .ml; other units see
     those of its .mli, or of its .ml when it has none.  The two number
     apart, so each has its table. *)
  let own_keys = Shape.Uid.Tbl.create 1024 and seen_keys = Shape.Uid.Tbl.create 1024 in
  let keyed tbl unit =
    List.iter (fun (kind, uid, name) -> Shape.Uid.Tbl.replace tbl uid (label_key kind unit name))
  in
  let declared =
    List.concat_map
      (fun ((f, unit, str) as u) ->
        let ls = labels (fun it -> it.structure it str) in
        keyed own_keys unit ls;
        (match mli u with
        | Some (_, sg) -> keyed seen_keys unit (labels (fun it -> it.signature it sg))
        | None -> keyed seen_keys unit ls);
        List.map
          (fun (kind, _, name) ->
            let key = label_key kind unit name in
            { kind; key; name = display unit ^ "." ^ name; file = f; unit; bound = None })
          ls)
      (with_mli @ bare)
  in
  let label unit uid = Shape.Uid.Tbl.find_opt (if unit_of uid = unit then own_keys else seen_keys) uid in
  let items = exported @ lets @ declared in
  let by_key = Hashtbl.create 1024 in
  List.iter (fun i -> Hashtbl.replace by_key i.key i) items;
  let used = Hashtbl.create 4096 in
  List.iter
    (fun (_, unit, str) ->
      let keys, binds = uses ~label:(label unit) str in
      let counts (k, loc) =
        match Hashtbl.find_opt by_key k with
        | Some { kind = Value; unit = u; bound; _ } when u = unit -> (
            match bound with
            | Some def -> not (List.exists (fun b -> within b def && within b loc) binds)
            | None -> false)
        | _ -> true
      in
      List.iter (fun ((k, _) as use) -> if counts use then Hashtbl.replace used k ()) keys)
    (impls root [ "lib"; "bin"; "bench"; "examples" ]);
  let tests = Hashtbl.create 64 in
  List.iter
    (fun (f, unit, str) ->
      let t = Hashtbl.create 256 in
      List.iter (fun (k, _) -> Hashtbl.replace t k ()) (fst (uses ~label:(label unit) str));
      Hashtbl.replace tests f t)
    (impls root [ "test" ]);
  let unused = List.filter (fun i -> not (Hashtbl.mem used i.key)) items in
  let allow = allow_lines allow_path in
  let errors = ref 0 in
  let problem fmt = Printf.ksprintf (fun s -> incr errors; print_endline s) fmt in
  List.iter
    (fun i ->
      if not (List.mem_assoc i.name allow) then
        problem "%s: %s %s in lib, bin, bench or examples" i.file i.name
          (match i.kind with
          | Value -> "has no caller"
          | Field -> "has no reader"
          | Ctor -> "is never built"))
    unused;
  List.iter
    (fun (q, files) ->
      let found = List.find_opt (fun i -> i.name = q) unused in
      if files = [] && Option.fold ~none:true ~some:(fun i -> i.kind <> Field) found then
        problem "%s: %s names no test/*.ml file before its ':'" allow_path q;
      match found with
      | None -> problem "%s: %s is stale (not an uncalled export)" allow_path q
      | Some i ->
          List.iter
            (fun f ->
              match Hashtbl.find_opt tests f with
              | None -> problem "%s: %s names %s, which does not exist" allow_path q f
              | Some t ->
                  if not (Hashtbl.mem t i.key) then
                    problem "%s: %s names %s, which does not spell it" allow_path q f)
            files)
    allow;
  if !errors > 0 then begin
    Printf.printf "exports: %d problem(s)\n" !errors;
    exit 1
  end;
  Printf.printf
    "exports: %d values in %d .mli files and %d top-level lets in %d .ml files without one; \
     %d allowed without a caller\n"
    (List.length exported) (List.length with_mli) (List.length lets) (List.length bare)
    (List.length allow)
