type t = {
  by_id : string Extmem.Vec.t;
  (* Open-addressing probe table over ids (slot = id + 1, 0 = empty) with a
     per-id cached hash, instead of a [(string, int) Hashtbl.t]: it can be
     probed with a raw byte range, so [intern_bytes] resolves names the
     parser has in its scratch buffer without allocating a string for
     already-known names. *)
  mutable table : int array;
  mutable mask : int;
  mutable hash_of_id : int array;
  (* Every operation locks, so a dictionary stays consistent (table
     resize, vector growth) even if domains share it; a sort session's
     dictionary is used by the one domain running its job. *)
  lock : Mutex.t;
}

let initial_slots = 128

let create () =
  {
    by_id = Extmem.Vec.create ();
    table = Array.make initial_slots 0;
    mask = initial_slots - 1;
    hash_of_id = Array.make 64 0;
    lock = Mutex.create ();
  }

(* FNV-1a; cheap, stable, and good enough for tag/attribute names. *)
let fnv_init = 0x811c9dc5
let fnv_step h c = ((h lxor c) * 0x01000193) land max_int

let hash_string s =
  let h = ref fnv_init in
  for i = 0 to String.length s - 1 do
    h := fnv_step !h (Char.code (String.unsafe_get s i))
  done;
  !h

let hash_bytes b off len =
  let h = ref fnv_init in
  for i = off to off + len - 1 do
    h := fnv_step !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

let eq_range s b off len =
  String.length s = len
  &&
  let rec go i =
    i = len || (Char.equal (String.unsafe_get s i) (Bytes.unsafe_get b (off + i)) && go (i + 1))
  in
  go 0

let rehash d =
  let slots = (d.mask + 1) * 2 in
  let table = Array.make slots 0 in
  let mask = slots - 1 in
  for id = 0 to Extmem.Vec.length d.by_id - 1 do
    let i = ref (d.hash_of_id.(id) land mask) in
    while table.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    table.(!i) <- id + 1
  done;
  d.table <- table;
  d.mask <- mask

let add_locked d s h =
  let id = Extmem.Vec.length d.by_id in
  Extmem.Vec.push d.by_id s;
  if id >= Array.length d.hash_of_id then begin
    let a = Array.make (Array.length d.hash_of_id * 2) 0 in
    Array.blit d.hash_of_id 0 a 0 id;
    d.hash_of_id <- a
  end;
  d.hash_of_id.(id) <- h;
  if (id + 1) * 2 > d.mask + 1 then rehash d;
  let i = ref (h land d.mask) in
  while d.table.(!i) <> 0 do
    i := (!i + 1) land d.mask
  done;
  d.table.(!i) <- id + 1;
  id

let rec probe_string d s h i =
  match d.table.(i) with
  | 0 -> None
  | slot ->
      let id = slot - 1 in
      if d.hash_of_id.(id) = h && String.equal (Extmem.Vec.get d.by_id id) s then Some id
      else probe_string d s h ((i + 1) land d.mask)

let intern d s =
  Mutex.protect d.lock (fun () ->
      let h = hash_string s in
      match probe_string d s h (h land d.mask) with Some id -> id | None -> add_locked d s h)

(* The probe for [intern_bytes], a top-level function so the hot path
   allocates no closure: only the result pair, and the string on a miss. *)
let rec probe_bytes d b off len h i =
  match d.table.(i) with
  | 0 ->
      let s = Bytes.sub_string b off len in
      (add_locked d s h, s)
  | slot ->
      let id = slot - 1 in
      let s = Extmem.Vec.get d.by_id id in
      if d.hash_of_id.(id) = h && eq_range s b off len then (id, s)
      else probe_bytes d b off len h ((i + 1) land d.mask)

let intern_bytes d b off len =
  let h = hash_bytes b off len in
  Mutex.lock d.lock;
  match probe_bytes d b off len h (h land d.mask) with
  | r ->
      Mutex.unlock d.lock;
      r
  | exception e ->
      Mutex.unlock d.lock;
      raise e

(* Called once per start tag by the output phase: lock and unlock
   directly, as [intern_bytes] does, so a lookup allocates nothing. *)
let lookup d id =
  Mutex.lock d.lock;
  if id < 0 || id >= Extmem.Vec.length d.by_id then begin
    Mutex.unlock d.lock;
    invalid_arg (Printf.sprintf "Dict.lookup: unknown id %d" id)
  end;
  let s = Extmem.Vec.get d.by_id id in
  Mutex.unlock d.lock;
  s

let to_list d =
  Mutex.lock d.lock;
  let l = Extmem.Vec.to_list d.by_id in
  Mutex.unlock d.lock;
  l
