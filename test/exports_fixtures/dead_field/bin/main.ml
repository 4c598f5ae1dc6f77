let () =
  let t = A.rename (A.make "a") "b" in
  A.touch t;
  print_string (A.name t);
  print_int (A.size t)
