(* Edge cases of the kernel model beyond test_kernel.ml's basics. *)

open Desim
open Oskern

let sig_a = 50

let sig_b = 51

let make ?(cores = 2) () =
  let eng = Engine.create () in
  let k = Kernel.create eng (Machine.with_cores Machine.skylake cores) in
  (eng, k)

let test_two_signals_fifo () =
  let eng, k = make () in
  let order = ref [] in
  Kernel.sigaction k sig_a (fun _ _ -> order := "a" :: !order);
  Kernel.sigaction k sig_b (fun _ _ -> order := "b" :: !order);
  let klt = Kernel.spawn k ~name:"v" (fun klt -> Kernel.compute k klt 0.05) in
  ignore
    (Engine.after eng 0.01 (fun () ->
         Kernel.kill k klt sig_a;
         Kernel.kill k klt sig_b));
  Engine.run eng;
  Alcotest.(check (list string)) "delivery order" [ "a"; "b" ] (List.rev !order)

let test_signal_handler_computes () =
  (* Handler doing real work extends the victim's completion time. *)
  let eng, k = make ~cores:1 () in
  Kernel.sigaction k sig_a (fun k klt -> Kernel.compute k klt 0.005);
  let finish = ref 0.0 in
  let klt =
    Kernel.spawn k ~name:"v" (fun klt ->
        Kernel.compute k klt 0.02;
        finish := Kernel.now k)
  in
  ignore (Engine.after eng 0.01 (fun () -> Kernel.kill k klt sig_a));
  Engine.run eng;
  if !finish < 0.025 then Alcotest.failf "handler work not charged: %f" !finish

let test_nested_signal_other_signo () =
  (* A different signal arriving during a handler is delivered after it
     (the handler's own signo stays blocked; others queue until the next
     delivery point). *)
  let eng, k = make () in
  let order = ref [] in
  Kernel.sigaction k sig_a (fun k klt ->
      order := "a-start" :: !order;
      Kernel.kill k klt sig_b;
      Kernel.consume k klt 1e-4;
      order := "a-end" :: !order);
  Kernel.sigaction k sig_b (fun _ _ -> order := "b" :: !order);
  let klt = Kernel.spawn k ~name:"v" (fun klt -> Kernel.compute k klt 0.02) in
  ignore (Engine.after eng 0.005 (fun () -> Kernel.kill k klt sig_a));
  Engine.run eng;
  Alcotest.(check (list string)) "b after a" [ "a-start"; "a-end"; "b" ] (List.rev !order)

let test_signal_to_zombie_ignored () =
  let eng, k = make () in
  Kernel.sigaction k sig_a (fun _ _ -> Alcotest.fail "handler ran for zombie");
  let klt = Kernel.spawn k ~name:"quick" (fun _ -> ()) in
  ignore (Engine.after eng 0.01 (fun () -> Kernel.kill k klt sig_a));
  Engine.run eng

let test_timer_cancel_stops_fires () =
  let eng, k = make () in
  let count = ref 0 in
  Kernel.sigaction k sig_a (fun _ _ -> incr count);
  let klt = Kernel.spawn k ~name:"v" (fun klt -> Kernel.compute k klt 0.1) in
  let tm =
    Kernel.Timer.create k ~interval:0.01 ~signo:sig_a ~target:(fun () -> Some klt) ()
  in
  ignore (Engine.after eng 0.035 (fun () -> Kernel.Timer.cancel tm));
  Engine.run eng;
  Alcotest.(check int) "3 fires then silence" 3 !count;
  Alcotest.(check int) "fires counter" 3 (Kernel.Timer.fires tm)

let test_timer_none_target_skips () =
  let eng, k = make () in
  let count = ref 0 in
  Kernel.sigaction k sig_a (fun _ _ -> incr count);
  ignore (Kernel.spawn k ~name:"v" (fun klt -> Kernel.compute k klt 0.05));
  let tm = Kernel.Timer.create k ~interval:0.01 ~signo:sig_a ~target:(fun () -> None) () in
  Engine.run ~until:0.06 eng;
  Kernel.Timer.cancel tm;
  Alcotest.(check int) "no deliveries" 0 !count;
  Alcotest.(check bool) "still fired internally" true (Kernel.Timer.fires tm >= 4)

let test_join_chain () =
  let eng, k = make () in
  let order = ref [] in
  let a = Kernel.spawn k ~name:"a" (fun klt -> Kernel.compute k klt 0.01) in
  let rec chain prev i =
    if i = 0 then prev
    else
      let t =
        Kernel.spawn k ~name:(Printf.sprintf "c%d" i) (fun klt ->
            Kernel.join k ~joiner:klt prev;
            order := i :: !order)
      in
      chain t (i - 1)
  in
  ignore (chain a 4);
  Engine.run eng;
  Alcotest.(check (list int)) "chain unwinds in order" [ 4; 3; 2; 1 ] (List.rev !order)

let test_yield_alone_is_noop () =
  let eng, k = make ~cores:1 () in
  let t_end = ref 0.0 in
  ignore
    (Kernel.spawn k ~name:"solo" (fun klt ->
         Kernel.compute k klt 0.01;
         Kernel.yield k klt;
         Kernel.compute k klt 0.01;
         t_end := Kernel.now k));
  Engine.run eng;
  if !t_end > 0.0205 then Alcotest.failf "lonely yield cost too much: %f" !t_end

let test_futex_set_before_wait () =
  let eng, k = make () in
  let fut = Kernel.Futex.create 0 in
  Kernel.Futex.set fut 1;
  let r = ref `Ok in
  ignore (Kernel.spawn k ~name:"w" (fun klt -> r := Kernel.Futex.wait k klt fut ~expected:0));
  Engine.run eng;
  Alcotest.(check bool) "EAGAIN on stale expected" true (!r = `Again)

let test_sleep_zero_and_negative () =
  let eng, k = make () in
  let ok = ref false in
  ignore
    (Kernel.spawn k ~name:"s" (fun klt ->
         Kernel.sleep k klt 0.0;
         (match Kernel.sleep k klt (-1.0) with
         | () -> ()
         | exception Invalid_argument _ -> ok := true)));
  Engine.run eng;
  Alcotest.(check bool) "negative rejected, zero fine" true !ok

let test_affinity_width_mismatch () =
  let _eng, k = make ~cores:2 () in
  Alcotest.check_raises "spawn mask" (Invalid_argument "Kernel.spawn: affinity width mismatch")
    (fun () ->
      ignore (Kernel.spawn k ~affinity:(Cpuset.all 4) ~name:"bad" (fun _ -> ())))

let suite =
  [
    Alcotest.test_case "two signals FIFO" `Quick test_two_signals_fifo;
    Alcotest.test_case "handler work charged" `Quick test_signal_handler_computes;
    Alcotest.test_case "nested other-signo signal" `Quick test_nested_signal_other_signo;
    Alcotest.test_case "signal to zombie ignored" `Quick test_signal_to_zombie_ignored;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel_stops_fires;
    Alcotest.test_case "timer None target skips" `Quick test_timer_none_target_skips;
    Alcotest.test_case "join chain" `Quick test_join_chain;
    Alcotest.test_case "lonely yield ~free" `Quick test_yield_alone_is_noop;
    Alcotest.test_case "futex stale expected" `Quick test_futex_set_before_wait;
    Alcotest.test_case "sleep zero/negative" `Quick test_sleep_zero_and_negative;
    Alcotest.test_case "affinity width mismatch" `Quick test_affinity_width_mismatch;
  ]
