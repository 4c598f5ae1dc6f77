(* Validated construction for the real fiber runtime, in the style of
   Core.Config: a smart constructor rejects nonsensical pool shapes up
   front with a uniform message — "Config: <field> = <value> (must be
   <requirement>)" — instead of letting a bad worker partition surface
   as a hung or misbehaving pool.  test_api_surface pins the shape. *)

type subpool = {
  sp_name : string;
  sp_workers : int list; (* global worker ids pinned to this sub-pool *)
  sp_overflow : bool; (* members may steal cross-sub-pool when idle *)
}

type t = {
  domains : int;
  preempt_interval : float option;
  adaptive : bool;
  quantum_min : float option;
  quantum_max : float option;
  subpools : subpool list;
  recorder_enabled : bool;
  recorder_capacity : int;
}

let reject field value requirement =
  invalid_arg
    (Printf.sprintf "Config: %s = %s (must be %s)" field value requirement)

let subpool ?(overflow = true) ~name ~workers () =
  { sp_name = name; sp_workers = workers; sp_overflow = overflow }

let default_domains () = Stdlib.max 1 (Domain.recommended_domain_count () - 1)

let validate t =
  if t.domains < 1 then reject "domains" (string_of_int t.domains) ">= 1";
  (match t.preempt_interval with
  | Some dt when dt <= 0.0 ->
      reject "preempt_interval" (Printf.sprintf "%g" dt) "positive"
  | _ -> ());
  (* Adaptive-quantum knobs.  The bounds are rejected whenever they are
     nonsensical — even on a non-adaptive pool, where they are merely
     dormant — so a typo fails fast instead of surfacing only once
     [adaptive] is flipped on. *)
  (match t.quantum_min with
  | Some q when q <= 0.0 || Float.is_nan q ->
      reject "quantum_min" (Printf.sprintf "%g" q) "positive"
  | _ -> ());
  (match t.quantum_max with
  | Some q when q <= 0.0 || Float.is_nan q ->
      reject "quantum_max" (Printf.sprintf "%g" q) "positive"
  | _ -> ());
  (match (t.quantum_min, t.quantum_max) with
  | Some lo, Some hi when lo > hi ->
      reject "quantum_min" (Printf.sprintf "%g" lo)
        (Printf.sprintf "<= quantum_max (%g)" hi)
  | _ -> ());
  if t.adaptive && t.preempt_interval = None then
    reject "adaptive" "true" "combined with preempt_interval";
  if t.recorder_capacity < 1 then
    reject "recorder_capacity" (string_of_int t.recorder_capacity) "positive";
  if t.subpools = [] then reject "subpools" "[]" "non-empty";
  (* [owner.(w)] = name of the sub-pool worker [w] is pinned to. *)
  let owner = Array.make t.domains None in
  let seen_names = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      if sp.sp_name = "" then reject "subpool.name" "\"\"" "non-empty";
      if Hashtbl.mem seen_names sp.sp_name then
        reject "subpool.name" (Printf.sprintf "%S" sp.sp_name) "unique";
      Hashtbl.add seen_names sp.sp_name ();
      let field = Printf.sprintf "subpools[%s].workers" sp.sp_name in
      if sp.sp_workers = [] then reject field "[]" "non-empty";
      List.iter
        (fun w ->
          if w < 0 || w >= t.domains then
            reject field (string_of_int w)
              (Printf.sprintf "within 0..%d (domains = %d)" (t.domains - 1)
                 t.domains);
          match owner.(w) with
          | Some _ -> reject field (string_of_int w) "pinned to exactly one sub-pool"
          | None -> owner.(w) <- Some sp.sp_name)
        sp.sp_workers)
    t.subpools;
  Array.iteri
    (fun w o ->
      if o = None then
        reject "subpools"
          (Printf.sprintf "{%s}"
             (String.concat ", " (List.map (fun sp -> sp.sp_name) t.subpools)))
          (Printf.sprintf "a partition of workers 0..%d: worker %d is unpinned"
             (t.domains - 1) w))
    owner

let make ?domains ?preempt_interval ?(adaptive = false) ?quantum_min
    ?quantum_max ?subpools ?(recorder = false) ?(recorder_capacity = 4096) () =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let subpools =
    match subpools with
    | Some sps -> sps
    | None when domains >= 1 ->
        [ subpool ~name:"default" ~workers:(List.init domains Fun.id) () ]
    | None -> []
  in
  let t =
    {
      domains;
      preempt_interval;
      adaptive;
      quantum_min;
      quantum_max;
      subpools;
      recorder_enabled = recorder;
      recorder_capacity;
    }
  in
  validate t;
  t
