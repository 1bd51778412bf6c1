type t = {
  dev : Device.t;
  extent : Extent.t;
  buf : bytes;
  mutable cur_block : int; (* index within extent of buffered block; -1 = none *)
  mutable pos : int;       (* byte offset within extent *)
}

let of_extent ?buffer dev extent =
  let bs = Device.block_size dev in
  let buf =
    match buffer with
    | None -> Bytes.create bs
    | Some b ->
        if Bytes.length b <> bs then
          invalid_arg "Block_reader.of_extent: buffer length must equal the block size";
        b
  in
  { dev; extent; buf; cur_block = -1; pos = 0 }

let of_device ?buffer dev =
  let bs = Device.block_size dev in
  let bytes = Device.byte_length dev in
  let blocks = (bytes + bs - 1) / bs in
  of_extent ?buffer dev { Extent.first_block = 0; blocks; bytes }

let position r = r.pos

let length r = r.extent.Extent.bytes

let at_end r = r.pos >= r.extent.Extent.bytes

let ensure_block r =
  let bs = Bytes.length r.buf in
  let want = r.pos / bs in
  if want <> r.cur_block then begin
    Device.read_block r.dev (r.extent.Extent.first_block + want) r.buf;
    r.cur_block <- want
  end

let block_size r = Bytes.length r.buf

let read_span r dst off len =
  let bs = Bytes.length r.buf in
  let within = r.pos mod bs in
  let n = min len (min (bs - within) (r.extent.Extent.bytes - r.pos)) in
  if n <= 0 then 0
  else begin
    ensure_block r;
    Bytes.blit r.buf within dst off n;
    r.pos <- r.pos + n;
    n
  end

let read_bytes r dst off len =
  let rec go off len got =
    match read_span r dst off len with
    | 0 -> got
    | n -> go (off + n) (len - n) (got + n)
  in
  go off len 0

let read_record r =
  if at_end r then None
  else begin
    (* varint length, read byte-at-a-time without boxing an option *)
    let byte () =
      if at_end r then raise (Codec.Corrupt "Block_reader.read_record: truncated length");
      ensure_block r;
      let b = Char.code (Bytes.unsafe_get r.buf (r.pos mod Bytes.length r.buf)) in
      r.pos <- r.pos + 1;
      b
    in
    let rec len shift acc =
      let b = byte () in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else len (shift + 7) acc
    in
    let n = len 0 0 in
    let payload = Bytes.create n in
    let got = read_bytes r payload 0 n in
    if got <> n then raise (Codec.Corrupt "Block_reader.read_record: truncated payload");
    Some (Bytes.unsafe_to_string payload)
  end

let seek r off =
  if off < 0 || off > r.extent.Extent.bytes then invalid_arg "Block_reader.seek: out of range";
  r.pos <- off
