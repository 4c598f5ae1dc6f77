let () =
  let open A in
  let_open ()
