type t = bool array

let all n =
  if n <= 0 then invalid_arg "Cpuset.all: n <= 0";
  Array.make n true

let of_list n cores =
  if n <= 0 then invalid_arg "Cpuset.of_list: n <= 0";
  let t = Array.make n false in
  List.iter
    (fun c ->
      if c < 0 || c >= n then invalid_arg "Cpuset.of_list: core out of range";
      t.(c) <- true)
    cores;
  t

let range n lo hi =
  if lo < 0 || hi >= n || lo > hi then invalid_arg "Cpuset.range: bad range";
  of_list n (List.init (hi - lo + 1) (fun i -> lo + i))

let mem t c = c >= 0 && c < Array.length t && t.(c)

let to_list t =
  let acc = ref [] in
  for i = Array.length t - 1 downto 0 do
    if t.(i) then acc := i :: !acc
  done;
  !acc

let width t = Array.length t
