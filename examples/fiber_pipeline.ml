(* Fibers + channels on real cores: a sorting service built from the
   fiber runtime's synchronization primitives.

   Run with:  dune exec examples/fiber_pipeline.exe *)

module Fsync = Fiber.Fsync

(* Parallel mergesort: fork the left half as a fiber, recurse right. *)
let rec msort (a : int array) lo hi =
  let n = hi - lo in
  if n <= 4096 then begin
    let sub = Array.sub a lo n in
    Array.sort compare sub;
    Array.blit sub 0 a lo n
  end
  else begin
    let mid = lo + (n / 2) in
    let left = Fiber.spawn (fun () -> msort a lo mid) in
    msort a mid hi;
    Fiber.await left;
    (* merge in place via scratch *)
    let scratch = Array.make n 0 in
    let i = ref lo and j = ref mid and k = ref 0 in
    while !i < mid && !j < hi do
      if a.(!i) <= a.(!j) then begin
        scratch.(!k) <- a.(!i);
        incr i
      end
      else begin
        scratch.(!k) <- a.(!j);
        incr j
      end;
      incr k
    done;
    while !i < mid do
      scratch.(!k) <- a.(!i);
      incr i;
      incr k
    done;
    while !j < hi do
      scratch.(!k) <- a.(!j);
      incr j;
      incr k
    done;
    Array.blit scratch 0 a lo n
  end

let is_sorted a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) > a.(i) then ok := false
  done;
  !ok

let () =
  let pool = Fiber.make (Fiber.Config.make ()) in
  Printf.printf "sorting service on %d worker domain(s)\n%!" (Fiber.domains pool);
  let requests = Fsync.Channel.create () in
  let replies = Fsync.Channel.create () in
  let n_jobs = 8 in
  Fiber.run pool (fun () ->
      (* A service fiber that sorts whatever arrives on [requests]. *)
      let service =
        Fiber.spawn (fun () ->
            for _ = 1 to n_jobs do
              let id, arr = Fsync.Channel.recv requests in
              msort arr 0 (Array.length arr);
              Fsync.Channel.send replies (id, is_sorted arr)
            done)
      in
      (* Clients submit jobs of varying sizes concurrently. *)
      let t0 = Unix.gettimeofday () in
      for id = 1 to n_jobs do
        let n = 20_000 * id in
        let arr = Array.init n (fun i -> (i * 7919 + id * 104729) mod 1_000_003) in
        Fsync.Channel.send requests (id, arr)
      done;
      for _ = 1 to n_jobs do
        let id, ok = Fsync.Channel.recv replies in
        Printf.printf "  job %d: %s\n%!" id (if ok then "sorted" else "FAILED")
      done;
      Fiber.await service;
      Printf.printf "all %d jobs done in %.3fs\n%!" n_jobs (Unix.gettimeofday () -. t0));
  Fiber.shutdown pool
