type op = Backend.op =
  | Read
  | Write

exception Fault = Backend.Fault

type subscriber = op -> int -> start_ns:int -> dur_ns:int -> unit

type subscription = {
  notify : subscriber;
  sub_clock : (unit -> int) option;
}

type t = {
  name : string;
  block_size : int;
  mutable blocks : int;
  mutable live : int;  (* allocated and not discarded *)
  mutable peak_live : int;
  mutable logical_len : int option;
  base : Backend.t;       (* the raw store; bypassed only by [contents]/preload *)
  mutable top : Backend.t;  (* base under the interceptors *)
  stats : Io_stats.t;
  mutable subs : subscription list;  (* in subscription order *)
  mutable clock : (unit -> int) option;  (* the first timing subscriber's *)
}

let of_backend base =
  {
    name = base.Backend.name;
    block_size = base.Backend.block_size;
    blocks = 0;
    live = 0;
    peak_live = 0;
    logical_len = None;
    base;
    top = base;
    stats = Io_stats.create ();
    subs = [];
    clock = None;
  }

let in_memory ?(name = "mem") ~block_size () =
  of_backend (Backend.mem ~name ~block_size ())

let file ?name ?(readonly = false) ~block_size ~path () =
  (* an existing file opened as it is: its size gives the block count and
     the byte length, so nothing is loaded *)
  let base, size = Backend.file ?name ~readonly ~block_size ~path () in
  let d = of_backend base in
  if readonly then begin
    d.blocks <- (size + block_size - 1) / block_size;
    d.live <- d.blocks;
    d.peak_live <- d.blocks;
    d.logical_len <- Some size
  end;
  d

let push_layer d layer = d.top <- Layer.wrap layer d.top

let set_subs d subs =
  d.subs <- subs;
  d.clock <- List.find_map (fun s -> s.sub_clock) subs

let subscribe ?clock d f =
  let s = { notify = f; sub_clock = clock } in
  set_subs d (d.subs @ [ s ]);
  s

let unsubscribe d s = set_subs d (List.filter (fun s' -> s' != s) d.subs)

let block_size d = d.block_size

let block_count d = d.blocks

let byte_length d =
  match d.logical_len with
  | Some n -> n
  | None -> d.blocks * d.block_size

let set_byte_length d n = d.logical_len <- Some n

let stats d = d.stats

let allocate d n =
  if n < 0 then invalid_arg "Device.allocate: negative count";
  let first = d.blocks in
  d.base.Backend.allocate n;
  d.blocks <- d.blocks + n;
  d.live <- d.live + n;
  if d.live > d.peak_live then d.peak_live <- d.live;
  first

(* Not an I/O: nothing is counted and no subscriber is told.  It goes
   through the interceptors so a layer may pass it on, but the fault
   layers do not fail it. *)
let discard d i =
  if i < 0 || i >= d.blocks then
    invalid_arg (Printf.sprintf "Device.discard(%s): block %d out of range [0,%d)" d.name i d.blocks);
  d.top.Backend.discard i;
  d.live <- d.live - 1

(* Not an I/O either: the counters and the peak go on across it. *)
let clear d =
  d.top.Backend.clear ();
  d.blocks <- 0;
  d.live <- 0;
  d.logical_len <- None

let live_blocks d = d.live

let peak_live_blocks d = d.peak_live

let rec notify subs op i start_ns dur_ns =
  match subs with
  | [] -> ()
  | s :: rest ->
      s.notify op i ~start_ns ~dur_ns;
      notify rest op i start_ns dur_ns

let backend_io d op i buf =
  match op with
  | Read -> d.top.Backend.read_block i buf
  | Write -> d.top.Backend.write_block i buf

let count d = function
  | Read -> Io_stats.record_read d.stats
  | Write -> Io_stats.record_write d.stats

(* One I/O: through the interceptors to the backend (a fault raises out
   of here before anything is counted or told), then the count, then the
   subscribers.  The clock is read only when a subscriber asked for
   timing, and the path allocates nothing. *)
let complete d op i buf =
  match d.subs with
  | [] ->
      backend_io d op i buf;
      count d op
  | subs -> (
      match d.clock with
      | None ->
          backend_io d op i buf;
          count d op;
          notify subs op i 0 0
      | Some clock ->
          let t0 = clock () in
          backend_io d op i buf;
          let dt = clock () - t0 in
          count d op;
          notify subs op i t0 dt)

let read_block d i buf =
  if i < 0 || i >= d.blocks then
    invalid_arg (Printf.sprintf "Device.read_block(%s): block %d out of range [0,%d)" d.name i d.blocks);
  if Bytes.length buf < d.block_size then invalid_arg "Device.read_block: buffer too small";
  complete d Read i buf

let write_block d i buf =
  if i < 0 || i > d.blocks then
    invalid_arg (Printf.sprintf "Device.write_block(%s): block %d out of range [0,%d]" d.name i d.blocks);
  if Bytes.length buf < d.block_size then invalid_arg "Device.write_block: buffer too small";
  if i = d.blocks then ignore (allocate d 1);
  complete d Write i buf

(* Preload bytes through the raw backend: not counted as I/O, not seen by
   interceptors or subscribers.  Used by [of_string] and Device_spec
   loading. *)
let load_string d s =
  let bs = d.block_size in
  let nblocks = (String.length s + bs - 1) / bs in
  if nblocks > d.blocks then ignore (allocate d (nblocks - d.blocks));
  let buf = Bytes.create bs in
  for i = 0 to nblocks - 1 do
    let off = i * bs in
    let n = min bs (String.length s - off) in
    Bytes.fill buf 0 bs '\000';
    Bytes.blit_string s off buf 0 n;
    d.base.Backend.write_block i buf
  done;
  set_byte_length d (String.length s)

let of_string ?name ~block_size s =
  let d = in_memory ?name ~block_size () in
  load_string d s;
  d

let contents d =
  let len = byte_length d in
  let out = Bytes.create len in
  let buf = Bytes.create d.block_size in
  for i = 0 to d.blocks - 1 do
    let off = i * d.block_size in
    let n = min d.block_size (len - off) in
    if n > 0 then begin
      d.base.Backend.read_block i buf;
      Bytes.blit buf 0 out off n
    end
  done;
  Bytes.unsafe_to_string out

let copy ~src ~dst =
  if src.block_size <> dst.block_size then invalid_arg "Device.copy: block sizes differ";
  if dst.blocks > 0 then invalid_arg "Device.copy: destination is not empty";
  let buf = Bytes.create src.block_size in
  for i = 0 to src.blocks - 1 do
    read_block src i buf;
    write_block dst i buf
  done;
  set_byte_length dst (byte_length src)

let flush d = d.top.Backend.flush ()

let close d = d.top.Backend.close ()
