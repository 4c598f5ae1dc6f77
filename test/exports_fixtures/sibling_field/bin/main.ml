let () =
  print_int (A.M1.make 1).A.M1.size;
  print_int (A.M2.make 2).A.M2.count
