(* Machine-speed probe: a fixed amount of allocation-heavy OCaml work —
   sort an array, build strings, fill a hash table, concatenate — that
   uses nothing from this repository, so its time moves only with the
   machine (other tenants of the host, frequency, caches).  nexperf runs
   it between requests and scales its timings by it; see README.md. *)

let () =
  let n = 100_000 in
  let st = Random.State.make [| 42 |] in
  let a = Array.init n (fun _ -> Random.State.bits st) in
  Array.sort compare a;
  let strings = Array.to_list (Array.map string_of_int a) in
  let h = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace h s (String.length s)) strings;
  let b = Buffer.create 1024 in
  Hashtbl.iter (fun k _ -> Buffer.add_string b k) h;
  exit (if Buffer.length b > 0 then 0 else 1)
