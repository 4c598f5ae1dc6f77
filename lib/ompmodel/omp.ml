open Oskern

type team = {
  master_id : int;
  tdepth : int;  (* nesting depth of this team's regions *)
  mutable members : Kernel.klt list;  (* tids 1..n-1, in tid order *)
  mutable size : int;  (* nthreads of the current/last region *)
  mutable work : (int -> Kernel.klt -> unit) option;
  mutable work_gen : int;
  work_fut : Kernel.Futex.t;
  mutable arrived : int;
  mutable release_gen : int;
  release_fut : Kernel.Futex.t;
  mutable shutdown : bool;
}

type t = {
  k : Kernel.t;
  blocktime : float;
  bind : bool;
  teams : (int * int, team) Hashtbl.t;  (* (master klt id, nesting depth) -> hot team *)
  depth : (int, int) Hashtbl.t;  (* klt id -> current nesting depth *)
  mutable next_bind_core : int;
  mutable affinity : Cpuset.t option;  (* taskset-style mask, if any *)
  mutable nthreads_created : int;
}

let create k ?(blocktime = 0.2) ?(bind = false) () =
  {
    k;
    blocktime;
    bind;
    teams = Hashtbl.create 8;
    depth = Hashtbl.create 8;
    next_bind_core = 0;
    affinity = None;
    nthreads_created = 0;
  }

let kernel t = t.k

let team_threads t = t.nthreads_created

let team_klts t =
  Hashtbl.fold (fun _ team acc -> team.members @ acc) t.teams []

(* Spin for up to [blocktime], then sleep on [fut] — KMP_BLOCKTIME. *)
let wait_cond t klt fut cond =
  let deadline = Kernel.now t.k +. t.blocktime in
  while (not (cond ())) && Kernel.now t.k < deadline do
    Kernel.compute t.k klt 2e-6
  done;
  while not (cond ()) do
    ignore (Kernel.Futex.wait t.k klt fut ~expected:(Kernel.Futex.value fut))
  done

(* The implicit barrier at region end.  The last arriver bumps the
   release generation and wakes the sleepers. *)
let barrier_arrive t team klt =
  let my_gen = team.release_gen in
  team.arrived <- team.arrived + 1;
  if team.arrived = team.size then begin
    team.arrived <- 0;
    team.release_gen <- team.release_gen + 1;
    Kernel.Futex.set team.release_fut team.release_gen;
    ignore (Kernel.Futex.wake t.k ~waker:klt team.release_fut max_int)
  end
  else wait_cond t klt team.release_fut (fun () -> team.release_gen > my_gen)

let member_loop t team tid klt =
  let rec loop seen_gen =
    wait_cond t klt team.work_fut (fun () -> team.work_gen > seen_gen || team.shutdown);
    if not team.shutdown then begin
      let gen = team.work_gen in
      (* A hot-team member beyond the current region's size neither works
         nor joins the barrier — it just waits for the next region. *)
      if tid < team.size then begin
        Hashtbl.replace t.depth (Kernel.klt_id klt) (team.tdepth + 1);
        (match team.work with Some f -> f tid klt | None -> ());
        Hashtbl.remove t.depth (Kernel.klt_id klt);
        barrier_arrive t team klt
      end;
      loop gen
    end
  in
  loop 0

let member_affinity t =
  match t.affinity with
  | Some mask -> mask
  | None ->
      let ncores = (Kernel.machine t.k).Machine.cores in
      if t.bind then begin
        let c = t.next_bind_core mod ncores in
        t.next_bind_core <- t.next_bind_core + 1;
        Cpuset.of_list ncores [ c ]
      end
      else Cpuset.all ncores

let grow_team t team ~upto ~creator =
  let have = List.length team.members + 1 in
  if upto > have then begin
    let fresh =
      List.init (upto - have) (fun i ->
          let tid = have + i in
          t.nthreads_created <- t.nthreads_created + 1;
          Kernel.spawn t.k ~creator
            ~affinity:(member_affinity t)
            ~name:(Printf.sprintf "omp-%d.%d" team.master_id tid)
            (fun klt -> member_loop t team tid klt))
    in
    team.members <- team.members @ fresh
  end

let depth_of t klt = Option.value ~default:0 (Hashtbl.find_opt t.depth (Kernel.klt_id klt))

let team_for t master =
  let mid = (Kernel.klt_id master, depth_of t master) in
  match Hashtbl.find_opt t.teams mid with
  | Some team -> team
  | None ->
      let team =
        {
          master_id = Kernel.klt_id master;
          tdepth = depth_of t master;
          members = [];
          size = 1;
          work = None;
          work_gen = 0;
          work_fut = Kernel.Futex.create 0;
          arrived = 0;
          release_gen = 0;
          release_fut = Kernel.Futex.create 0;
          shutdown = false;
        }
      in
      Hashtbl.replace t.teams mid team;
      team

let parallel t ~master ~nthreads f =
  if nthreads <= 0 then invalid_arg "Omp.parallel: nthreads <= 0";
  let team = team_for t master in
  grow_team t team ~upto:nthreads ~creator:master;
  (* Fork: a couple of microseconds of runtime bookkeeping. *)
  Kernel.consume t.k master 1e-6;
  team.size <- nthreads;
  team.work <- Some f;
  team.work_gen <- team.work_gen + 1;
  Kernel.Futex.set team.work_fut team.work_gen;
  ignore (Kernel.Futex.wake t.k ~waker:master team.work_fut max_int);
  let prev_depth = depth_of t master in
  Hashtbl.replace t.depth (Kernel.klt_id master) (team.tdepth + 1);
  f 0 master;
  Hashtbl.replace t.depth (Kernel.klt_id master) prev_depth;
  barrier_arrive t team master;
  team.work <- None

let parallel_for t ~master ~nthreads ~lo ~hi f =
  let n = hi - lo in
  if n < 0 then invalid_arg "Omp.parallel_for: hi < lo";
  if n > 0 then
    parallel t ~master ~nthreads (fun tid klt ->
        let chunk = (n + nthreads - 1) / nthreads in
        let clo = lo + (tid * chunk) in
        let chi = Stdlib.min hi (clo + chunk) in
        if clo < chi then f klt clo chi)

let set_affinity_all t mask =
  t.affinity <- Some mask;
  Hashtbl.iter
    (fun _ team -> List.iter (fun klt -> Kernel.set_affinity t.k klt mask) team.members)
    t.teams

let shutdown t =
  Hashtbl.iter
    (fun _ team ->
      team.shutdown <- true;
      Kernel.Futex.set team.work_fut (team.work_gen + 1_000_000);
      ignore (Kernel.Futex.wake t.k team.work_fut max_int))
    t.teams
