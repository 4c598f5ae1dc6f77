let () = print_float (A.area (A.circle 1.0))
