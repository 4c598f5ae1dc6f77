module Sub = struct
  let f () = ()
  let g () = ()
end

let h () = ()
