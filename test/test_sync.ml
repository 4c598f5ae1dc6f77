open Desim

let run_sim f =
  let e = Engine.create () in
  f e;
  Engine.run e;
  e

let test_mutex_exclusion () =
  let m = Sync.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 and order = ref [] in
  let _ =
    run_sim (fun e ->
        for i = 0 to 3 do
          Engine.spawn e (Printf.sprintf "p%d" i) (fun () ->
              Sync.Mutex.lock m;
              incr inside;
              if !inside > !max_inside then max_inside := !inside;
              Engine.delay e 1.0;
              order := i :: !order;
              decr inside;
              Sync.Mutex.unlock m)
        done)
  in
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  Alcotest.(check (list int)) "FIFO fairness" [ 0; 1; 2; 3 ] (List.rev !order)

let test_mutex_unlock_unlocked () =
  let m = Sync.Mutex.create () in
  Alcotest.check_raises "unlock unlocked"
    (Invalid_argument "Sync.Mutex.unlock: not locked") (fun () ->
      Sync.Mutex.unlock m)

let test_mutex_waiters () =
  let m = Sync.Mutex.create () in
  let e = Engine.create () in
  Engine.spawn e "holder" (fun () ->
      Sync.Mutex.lock m;
      Engine.delay e 10.0;
      Sync.Mutex.unlock m);
  for i = 1 to 3 do
    Engine.spawn e (Printf.sprintf "w%d" i) (fun () ->
        Engine.delay e 1.0;
        Sync.Mutex.lock m;
        Sync.Mutex.unlock m)
  done;
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "3 queued" 3 (Sync.Mutex.waiters m);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Sync.Mutex.waiters m)

let suite =
  [
    Alcotest.test_case "mutex mutual exclusion + FIFO" `Quick test_mutex_exclusion;
    Alcotest.test_case "mutex unlock unlocked" `Quick test_mutex_unlock_unlocked;
    Alcotest.test_case "mutex waiter count" `Quick test_mutex_waiters;
  ]
