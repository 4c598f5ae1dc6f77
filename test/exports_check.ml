(* Exports lint (dune alias @exports, part of @runtest): every [val]
   in lib/*/*.mli must have a caller.  A name passes when it occurs as a
   whole word in some .ml, .mli or .md file under lib, bin, bench,
   examples or docs other than its own module's .ml/.mli.  A name whose
   only users are tests is listed in exports_allow.txt as
   "Module.name  the test it serves", where Module is the file's module
   (also for a value of a nested signature).  An entry that no longer
   names an uncalled value is reported too, so the list shrinks with
   the code.

   The match is by word, not by scope: a common name such as [create]
   is always "called".  The lint catches a value nobody spells, which
   is what a deleted caller leaves behind.

     exports_check.exe [ROOT] [ALLOW]   (defaults: "." and
                                         "test/exports_allow.txt") *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* Every identifier-like word of [s]. *)
let words s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then acc
    else if is_ident s.[i] then begin
      let j = ref i in
      while !j < n && is_ident s.[!j] do incr j done;
      go !j (String.sub s i (!j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let scanned f =
  List.exists (Filename.check_suffix f) [ ".ml"; ".mli"; ".md" ]

(* Source files under [dir], skipping dune's hidden object dirs. *)
let rec files dir =
  if not (Sys.file_exists dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if e.[0] = '.' then []
           else if Sys.is_directory p then files p
           else if scanned e then [ p ]
           else [])

(* The module a file belongs to: its path without the extension, so
   foo.ml and foo.mli are one module. *)
let owner path = Filename.remove_extension path

(* ["val name :"] declarations of an .mli, nested signatures included. *)
let vals path =
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun line ->
         let t = String.trim line in
         if not (String.starts_with ~prefix:"val " t) then None
         else match List.rev (words t) with "val" :: name :: _ -> Some name | _ -> None)

let qualified path name =
  String.capitalize_ascii (Filename.basename (owner path)) ^ "." ^ name

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let allow_path =
    if Array.length Sys.argv > 2 then Sys.argv.(2)
    else Filename.concat root "test/exports_allow.txt"
  in
  let all =
    List.concat_map
      (fun d -> files (Filename.concat root d))
      [ "lib"; "bin"; "bench"; "examples"; "docs" ]
  in
  (* word -> the modules it occurs in *)
  let seen : (string, string list) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun f ->
      let m = owner f in
      List.iter
        (fun w ->
          let ms = Option.value ~default:[] (Hashtbl.find_opt seen w) in
          if not (List.mem m ms) then Hashtbl.replace seen w (m :: ms))
        (words (read_file f)))
    all;
  let used_outside m name =
    List.exists (fun m' -> m' <> m) (Option.value ~default:[] (Hashtbl.find_opt seen name))
  in
  let mlis =
    List.filter
      (fun f ->
        Filename.check_suffix f ".mli"
        && Filename.dirname (Filename.dirname f) = Filename.concat root "lib")
      all
  in
  let uncalled =
    List.concat_map
      (fun mli ->
        List.filter_map
          (fun name ->
            if used_outside (owner mli) name then None else Some (qualified mli name, mli))
          (vals mli))
      mlis
  in
  (* "Module.name  what it serves" lines; # starts a comment. *)
  let allow =
    String.split_on_char '\n' (read_file allow_path)
    |> List.filter_map (fun line ->
           match String.trim line with
           | "" -> None
           | l when l.[0] = '#' -> None
           | l -> (
               match String.index_opt l ' ' with
               | None -> Some (l, "")
               | Some i -> Some (String.sub l 0 i, String.trim (String.sub l i (String.length l - i)))))
  in
  let errors = ref 0 in
  let problem fmt = Printf.ksprintf (fun s -> incr errors; print_endline s) fmt in
  List.iter
    (fun (q, mli) ->
      if not (List.mem_assoc q allow) then
        problem "%s: %s has no caller in lib, bin, bench, examples or docs" mli q)
    uncalled;
  List.iter
    (fun (q, why) ->
      if why = "" then problem "%s: %s names no caller, test or doc" allow_path q;
      if not (List.mem_assoc q uncalled) then
        problem "%s: %s is stale (not an uncalled export)" allow_path q)
    allow;
  if !errors > 0 then begin
    Printf.printf "exports: %d problem(s)\n" !errors;
    exit 1
  end;
  Printf.printf "exports: %d values in %d .mli files, %d allowed without a caller\n"
    (List.fold_left (fun acc f -> acc + List.length (vals f)) 0 mlis)
    (List.length mlis) (List.length allow)
