type t = {
  dev : Device.t;
  first_block : int;
  buf : bytes;
  mutable fill : int;      (* valid bytes in buf *)
  mutable blocks : int;    (* full blocks already written *)
  mutable closed : bool;
  scratch : bytes;         (* record-framing varint, <= 10 bytes *)
}

let create ?buffer dev =
  let bs = Device.block_size dev in
  let buf =
    match buffer with
    | None -> Bytes.create bs
    | Some b ->
        if Bytes.length b <> bs then
          invalid_arg "Block_writer.create: buffer length must equal the block size";
        b
  in
  {
    dev;
    first_block = Device.block_count dev;
    buf;
    fill = 0;
    blocks = 0;
    closed = false;
    scratch = Bytes.create 10;
  }

let check_open w = if w.closed then invalid_arg "Block_writer: already closed"

let flush_block w =
  let i = Device.allocate w.dev 1 in
  assert (i = w.first_block + w.blocks);
  Device.write_block w.dev i w.buf;
  w.blocks <- w.blocks + 1;
  w.fill <- 0

(* Bytes that do not fit the current block: fill it, flush, repeat. *)
let rec write_spanning w src off len =
  if len > 0 then begin
    let n = min len (Bytes.length w.buf - w.fill) in
    Bytes.blit src off w.buf w.fill n;
    w.fill <- w.fill + n;
    if w.fill = Bytes.length w.buf then flush_block w;
    write_spanning w src (off + n) (len - n)
  end

let write_bytes w src off len =
  check_open w;
  if len <= Bytes.length w.buf - w.fill then begin
    (* the common case: one blit into the current block *)
    Bytes.blit src off w.buf w.fill len;
    w.fill <- w.fill + len;
    if w.fill = Bytes.length w.buf then flush_block w
  end
  else write_spanning w src off len

let write_substring w s off len = write_bytes w (Bytes.unsafe_of_string s) off len

let write_string w s = write_bytes w (Bytes.unsafe_of_string s) 0 (String.length s)

let write_char w c =
  check_open w;
  Bytes.set w.buf w.fill c;
  w.fill <- w.fill + 1;
  if w.fill = Bytes.length w.buf then flush_block w

let write_record w payload =
  (* frame the length straight into the fixed scratch: no Buffer, no
     intermediate string *)
  let v = ref (String.length payload) in
  let i = ref 0 in
  while !v >= 0x80 do
    Bytes.unsafe_set w.scratch !i (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    incr i;
    v := !v lsr 7
  done;
  Bytes.unsafe_set w.scratch !i (Char.unsafe_chr !v);
  write_bytes w w.scratch 0 (!i + 1);
  write_string w payload

let position w = (w.blocks * Bytes.length w.buf) + w.fill

let close w =
  check_open w;
  let bytes = position w in
  if w.fill > 0 then begin
    Bytes.fill w.buf w.fill (Bytes.length w.buf - w.fill) '\000';
    flush_block w
  end;
  w.closed <- true;
  { Extent.first_block = w.first_block; blocks = w.blocks; bytes }

let close_split w =
  check_open w;
  w.closed <- true;
  ({ Extent.first_block = w.first_block; blocks = w.blocks; bytes = w.blocks * Bytes.length w.buf },
   w.fill)
