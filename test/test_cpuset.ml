open Oskern

let test_all () =
  let s = Cpuset.all 4 in
  Alcotest.(check (list int)) "members" [ 0; 1; 2; 3 ] (Cpuset.to_list s);
  Alcotest.(check bool) "mem" true (Cpuset.mem s 3);
  Alcotest.(check bool) "out of range" false (Cpuset.mem s 4);
  Alcotest.(check int) "width" 4 (Cpuset.width s)

let test_of_list () =
  let s = Cpuset.of_list 8 [ 1; 5 ] in
  Alcotest.(check (list int)) "members" [ 1; 5 ] (Cpuset.to_list s);
  Alcotest.(check bool) "not member" false (Cpuset.mem s 0)

let test_range () =
  let s = Cpuset.range 8 2 4 in
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Cpuset.to_list s)

let test_equal () =
  let members cores = Cpuset.to_list (Cpuset.of_list 4 cores) in
  Alcotest.(check bool) "equal" true (members [ 0; 2 ] = members [ 2; 0 ]);
  Alcotest.(check bool) "not equal" false (members [ 0 ] = members [ 1 ])

let test_invalid () =
  Alcotest.check_raises "bad core" (Invalid_argument "Cpuset.of_list: core out of range")
    (fun () -> ignore (Cpuset.of_list 2 [ 2 ]));
  Alcotest.check_raises "bad range" (Invalid_argument "Cpuset.range: bad range")
    (fun () -> ignore (Cpuset.range 4 3 1))

let test_machine_presets () =
  Alcotest.(check int) "skylake cores" 56 Machine.skylake.Machine.cores;
  Alcotest.(check int) "knl cores" 68 Machine.knl.Machine.cores;
  let small = Machine.with_cores Machine.skylake 4 in
  Alcotest.(check int) "with_cores" 4 small.Machine.cores;
  Alcotest.check_raises "with_cores 0" (Invalid_argument "Machine.with_cores: n <= 0")
    (fun () -> ignore (Machine.with_cores Machine.skylake 0))

let test_flops_seconds () =
  let s = Machine.flops_seconds Machine.skylake ~per_core_gflops:10.0 1e10 in
  Alcotest.(check (float 1e-9)) "1 second of flops" 1.0 s

let suite =
  [
    Alcotest.test_case "all" `Quick test_all;
    Alcotest.test_case "of_list" `Quick test_of_list;
    Alcotest.test_case "range" `Quick test_range;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "invalid arguments" `Quick test_invalid;
    Alcotest.test_case "machine presets" `Quick test_machine_presets;
    Alcotest.test_case "flops_seconds" `Quick test_flops_seconds;
  ]
