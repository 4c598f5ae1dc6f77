(* Exports lint (dune alias @exports, part of @runtest): every value a
   lib module exports must have a caller.

   The values checked are every [val] in lib/*/*.mli, nested signatures
   included, and every top-level [let] of a lib/*/*.ml that has no .mli.
   A value is called when some .ml file under lib, bin, bench or
   examples, other than its own module's, spells it in one of these
   forms, after comments and string literals are blanked:

   - [Module.name], or [Module.Sub.name] for a nested signature, with
     any prefix ([Desim.Engine.now]);
   - a path that reaches it through a module alias of that file
     ([module E = Engine], [let module H = Metrics.Hist in]);
   - a path through the [Fiber] or [Check] facade, which include
     [Sched] and [Runner];
   - [Sub.name] or a bare [name] in a file that opens the module
     ([open], [let open], [include] or a local [M.( ... )] open).

   An open counts for the whole file.  When a path names a library
   ([Fiber.Config], [Preempt_core.Config]), only that library's module
   matches; otherwise every module of that name does.  A top-level [let]
   of a module without .mli is also called when its name occurs later
   in its own file, after its definition.

   A value whose only callers are tests is listed in exports_allow.txt
   as "Module.Sub.name  test/a.ml, test/b.ml: what it checks".  Each
   named test must exist and spell the value in one of the forms above.
   An entry whose value has a caller, or names none, is stale, so the
   list shrinks with the code.

     exports_check.exe [ROOT] [ALLOW]   (defaults: "." and
                                         ROOT/test/exports_allow.txt) *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = (c >= 'a' && c <= 'z') || c = '_'

(* [s] with comments, string and character literals blanked to spaces,
   newlines kept, so that only code is left and lines still count. *)
let code s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let blank i j =
    for k = i to min j n - 1 do
      if s.[k] <> '\n' then Bytes.set b k ' '
    done
  in
  let rec string_end i =
    if i >= n then n
    else match s.[i] with '\\' -> string_end (i + 2) | '"' -> i + 1 | _ -> string_end (i + 1)
  in
  (* {id|...|id}: [i] is just past the '{' *)
  let quoted i =
    let j = ref i in
    while !j < n && is_lower s.[!j] do incr j done;
    if !j < n && s.[!j] = '|' then begin
      let close = "|" ^ String.sub s i (!j - i) ^ "}" in
      let rec find k =
        if k + String.length close > n then n
        else if String.sub s k (String.length close) = close then k + String.length close
        else find (k + 1)
      in
      Some (find (!j + 1))
    end
    else None
  in
  let rec comment_end i depth =
    if i + 1 >= n then n
    else if s.[i] = '(' && s.[i + 1] = '*' then comment_end (i + 2) (depth + 1)
    else if s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 0 then i + 2 else comment_end (i + 2) (depth - 1)
    else if s.[i] = '"' then comment_end (string_end (i + 1)) depth
    else comment_end (i + 1) depth
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' ->
          let j = comment_end (i + 2) 0 in
          blank i j;
          go j
      | '"' ->
          let j = string_end (i + 1) in
          blank i j;
          go j
      | '{' -> (
          match quoted (i + 1) with
          | Some j -> blank i j; go j
          | None -> go (i + 1))
      | '\'' when i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' ->
          blank i (i + 3);
          go (i + 3)
      | '\'' when i + 1 < n && s.[i + 1] = '\\' ->
          let j = match String.index_from_opt s (i + 3) '\'' with Some j -> j + 1 | None -> n in
          blank i j;
          go j
      | c when is_ident c ->
          (* a whole identifier, so that the quote of [x'] is not a literal *)
          let j = ref i in
          while !j < n && is_ident s.[!j] do incr j done;
          go !j
      | _ -> go (i + 1)
  in
  go 0;
  Bytes.to_string b

(* Tokens of blanked code.  [Path (mods, Some v)] is [M.N.v] (mods may
   be empty: a bare [v]); [Path (mods, None)] a module path; [Lopen mods]
   the local open [M.N.( ... )]. *)
type tok = Path of string list * string option | Lopen of string list | Sym of char

let tokens s =
  let n = String.length s in
  let ident_end i =
    let j = ref i in
    while !j < n && is_ident s.[!j] do incr j done;
    !j
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let c = s.[i] in
      (* after a '.', a name is a record field, not a value *)
      let field = i > 0 && s.[i - 1] = '.' in
      if is_upper c then path field i [] acc
      else if is_ident c then begin
        let j = ident_end i in
        if field || not (is_lower c) then go j acc
        else go j (Path ([], Some (String.sub s i (j - i))) :: acc)
      end
      else if c = ' ' || c = '\n' || c = '\t' || c = '\r' then go (i + 1) acc
      else go (i + 1) (Sym c :: acc)
  and path field i mods acc =
    let j = ident_end i in
    let mods = String.sub s i (j - i) :: mods in
    let emit t k = go k (if field then acc else t :: acc) in
    if j + 1 < n && s.[j] = '.' && is_upper s.[j + 1] then path field (j + 1) mods acc
    else if j + 1 < n && s.[j] = '.' && is_lower s.[j + 1] then
      let k = ident_end (j + 1) in
      emit (Path (List.rev mods, Some (String.sub s (j + 1) (k - j - 1)))) k
    else if j + 1 < n && s.[j] = '.' && s.[j + 1] = '(' then emit (Lopen (List.rev mods)) (j + 1)
    else emit (Path (List.rev mods, None)) j
  in
  go 0 []

(* What a file spells: every value reference, with its module path as
   written, and the module paths it opens, both with aliases expanded. *)
type file = { refs : (string, string list list) Hashtbl.t; opens : string list list }

let scan text =
  let toks = tokens (code text) in
  let aliases = Hashtbl.create 8 in
  let rec find = function
    | Path ([], Some "module") :: Path ([ x ], None) :: Sym '=' :: Path (p, None) :: rest ->
        Hashtbl.replace aliases x p;
        find rest
    | _ :: rest -> find rest
    | [] -> ()
  in
  find toks;
  let rec expand fuel = function
    | m :: rest when fuel > 0 && Hashtbl.mem aliases m ->
        expand (fuel - 1) (Hashtbl.find aliases m @ rest)
    | p -> p
  in
  let expand = expand 8 in
  let refs = Hashtbl.create 256 in
  let rec walk opens = function
    | Path ([], Some ("open" | "include")) :: Sym '!' :: Path (p, None) :: rest
    | Path ([], Some ("open" | "include")) :: Path (p, None) :: rest
    | Lopen p :: rest ->
        walk (expand p :: opens) rest
    | Path (p, Some v) :: rest ->
        let p = expand p in
        let ps = Option.value ~default:[] (Hashtbl.find_opt refs v) in
        if not (List.mem p ps) then Hashtbl.replace refs v (p :: ps);
        walk opens rest
    | _ :: rest -> walk opens rest
    | [] -> opens
  in
  let opens = walk [] toks in
  { refs; opens = List.sort_uniq compare opens }

(* An exported value: the module path from its file's module down to
   its nested signature, e.g. ["Usync"; "Mutex"]. *)
type value = { owner : string; wrapper : string option; path : string list; name : string }

let qualified v = String.concat "." (v.path @ [ v.name ])

(* The modules whose [include] re-exports a whole module: a path through
   the facade reaches the included one. *)
let facades = [ ("Fiber", "Sched"); ("Check", "Runner") ]

(* Whether the module path [full] ends at [v]'s module, directly or
   through a facade.  [wrappers] are the library names: a path that
   names one right before the module must name [v]'s own library. *)
let reaches wrappers full v =
  let k = List.length full - List.length v.path in
  k >= 0
  &&
  match (List.filteri (fun i _ -> i >= k) full, v.path) with
  | m :: sub, m' :: sub' ->
      sub = sub'
      && (m = m' || List.assoc_opt m facades = Some m')
      && (k = 0
         ||
         let w = List.nth full (k - 1) in
         (not (List.mem w wrappers)) || Some w = v.wrapper)
  | _ -> false

(* Whether a file spells [v]: some reference to its name, prefixed with
   nothing or with one of the file's opens, reaches its module. *)
let spells wrappers f v =
  match Hashtbl.find_opt f.refs v.name with
  | None -> false
  | Some ps ->
      List.exists
        (fun p -> List.exists (fun base -> reaches wrappers (base @ p) v) ([] :: f.opens))
        ps

let scanned f = Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

(* Source paths under [root]/[dir], relative to [root], skipping dune's
   hidden object dirs. *)
let rec files root dir =
  let abs = Filename.concat root dir in
  if not (Sys.file_exists abs) then []
  else
    Array.to_list (Sys.readdir abs)
    |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if e.[0] = '.' then []
           else if Sys.is_directory (Filename.concat root p) then files root p
           else if scanned e then [ p ]
           else [])

(* The module a file belongs to: its path without the extension, so
   foo.ml and foo.mli are one module. *)
let owner path = Filename.remove_extension path
let modname path = String.capitalize_ascii (Filename.basename (owner path))

(* The library a lib/<dir>/dune file declares, capitalised. *)
let wrapper root path =
  let dune = Filename.concat root (Filename.concat (Filename.dirname path) "dune") in
  if not (Sys.file_exists dune) then None
  else
    let s = read_file dune in
    let key = "(name " in
    let rec find i =
      if i + String.length key > String.length s then None
      else if String.sub s i (String.length key) = key then begin
        let j = i + String.length key in
        let k = ref j in
        while !k < String.length s && is_ident s.[!k] do incr k done;
        Some (String.capitalize_ascii (String.sub s j (!k - j)))
      end
      else find (i + 1)
    in
    find 0

(* The [val]s of an .mli, each with the nested signatures it sits in. *)
let vals text =
  let rec go stack acc = function
    | Path ([], Some "module") :: Path ([ m ], None) :: Sym ':' :: Path ([], Some "sig") :: rest ->
        go (Some m :: stack) acc rest
    | Path ([], Some ("sig" | "struct" | "object" | "begin")) :: rest -> go (None :: stack) acc rest
    | Path ([], Some "end") :: rest -> go (match stack with _ :: t -> t | [] -> []) acc rest
    | Path ([], Some "val") :: Path ([], Some v) :: rest ->
        go stack ((List.filter_map Fun.id (List.rev stack), v) :: acc) rest
    | _ :: rest -> go stack acc rest
    | [] -> List.rev acc
  in
  go [] [] (tokens (code text))

(* The top-level [let]s of an .ml, each with whether its name occurs
   again after its definition, which ends where the next line starts
   at column 0. *)
let top_lets text =
  let c = code text in
  let n = String.length c in
  let starts = ref [] in
  String.iteri
    (fun i ch ->
      if (i = 0 || c.[i - 1] = '\n') && ch <> '\n' && ch <> ' ' then starts := i :: !starts)
    c;
  let starts = Array.of_list (List.rev !starts) in
  List.concat
    (List.mapi
       (fun k i ->
         let name =
           match tokens (String.sub c i (min n (i + 200) - i)) with
           | Path ([], Some ("let" | "and")) :: Path ([], Some "rec") :: Path ([], Some v) :: _
           | Path ([], Some ("let" | "and")) :: Path ([], Some v) :: _ ->
               Some v
           | _ -> None
         in
         match name with
         | Some v when v <> "_" ->
             let after = if k + 1 < Array.length starts then starts.(k + 1) else n in
             let later = tokens (String.sub c after (n - after)) in
             [ (v, List.mem (Path ([], Some v)) later) ]
         | _ -> [])
       (Array.to_list starts))

(* "Module.name  test/a.ml, test/b.ml: why" lines; # starts a comment.
   The files before the ':' are the tests that spell the value. *)
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

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let allow_path =
    if Array.length Sys.argv > 2 then Sys.argv.(2)
    else Filename.concat root "test/exports_allow.txt"
  in
  let read f = read_file (Filename.concat root f) in
  let all = List.concat_map (files root) [ "lib"; "bin"; "bench"; "examples" ] in
  let in_lib f = Filename.dirname (Filename.dirname f) = "lib" in
  let callers =
    List.filter_map
      (fun f -> if Filename.check_suffix f ".ml" then Some (owner f, scan (read f)) else None)
      all
  in
  let wrappers =
    List.sort_uniq compare (List.filter_map (fun f -> if in_lib f then wrapper root f else None) all)
  in
  let value f subs name =
    { owner = owner f; wrapper = wrapper root f; path = modname f :: subs; name }
  in
  let called v = List.exists (fun (o, f) -> o <> v.owner && spells wrappers f v) callers in
  let lib_files ext = List.filter (fun f -> in_lib f && Filename.check_suffix f ext) all in
  let mlis = lib_files ".mli" in
  let bare = List.filter (fun f -> not (List.mem (f ^ "i") mlis)) (lib_files ".ml") in
  let exported =
    List.concat_map
      (fun f -> List.map (fun (subs, name) -> (value f subs name, f)) (vals (read f)))
      mlis
  in
  let lets = List.concat_map (fun f -> List.map (fun l -> (l, f)) (top_lets (read f))) bare in
  let lets_once =
    List.filter_map
      (fun ((name, again), f) -> if again then None else Some (value f [] name, f))
      lets
  in
  let uncalled = List.filter (fun (v, _) -> not (called v)) (exported @ lets_once) in
  let find q = List.find_opt (fun (v, _) -> qualified v = q) uncalled in
  let allow = allow_lines allow_path in
  let tests = Hashtbl.create 16 in
  let test f =
    match Hashtbl.find_opt tests f with
    | Some t -> t
    | None ->
        let t =
          if Sys.file_exists (Filename.concat root f) then Some (scan (read f)) else None
        in
        Hashtbl.replace tests f t;
        t
  in
  let errors = ref 0 in
  let problem fmt = Printf.ksprintf (fun s -> incr errors; print_endline s) fmt in
  List.iter
    (fun (v, f) ->
      if not (List.mem_assoc (qualified v) allow) then
        problem "%s: %s has no caller in lib, bin, bench or examples" f (qualified v))
    uncalled;
  List.iter
    (fun (q, files) ->
      if files = [] then problem "%s: %s names no test/*.ml file before its ':'" allow_path q;
      match find q with
      | None -> problem "%s: %s is stale (not an uncalled export)" allow_path q
      | Some (v, _) ->
          List.iter
            (fun f ->
              match test f with
              | None -> problem "%s: %s names %s, which does not exist" allow_path q f
              | Some t ->
                  if not (spells wrappers t v) then
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
    (List.length exported) (List.length mlis) (List.length lets) (List.length bare)
    (List.length allow)
