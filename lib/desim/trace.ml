type record = { time : float; tag : string; detail : string }

type t = {
  mutable records : record list; (* newest first *)
  mutable count : int;
  capacity : int;
  mutable on : bool;
}

let create ?(capacity = 100_000) () = { records = []; count = 0; capacity; on = false }

let enable t = t.on <- true

let enabled t = t.on

let emit t time tag detail =
  if t.on && t.count < t.capacity then begin
    t.records <- { time; tag; detail } :: t.records;
    t.count <- t.count + 1
  end

let records t = List.rev t.records

let with_tag t tag = List.filter (fun r -> r.tag = tag) (records t)

let length t = t.count
