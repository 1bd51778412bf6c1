type tail = int * (bytes -> unit)

let tail_length ((n, _) : tail) = n

type t = {
  dev : Device.t;
  extent : Extent.t;
  buf : bytes;
  mutable cur_block : int; (* index within extent of buffered block; -1 = none *)
  mutable pos : int;       (* byte offset within the stream *)
  consume : bool;          (* discard each block once read past *)
  tail : tail;             (* a run's bytes past its full blocks *)
  length : int;            (* the extent's bytes and the tail's *)
}

let no_tail = (0, ignore)

let make ~consume ?buffer ?(tail = no_tail) dev extent =
  let bs = Device.block_size dev in
  let buf =
    match buffer with
    | None -> Bytes.create bs
    | Some b ->
        if Bytes.length b <> bs then
          invalid_arg "Block_reader.of_extent: buffer length must equal the block size";
        b
  in
  let tail_len = tail_length tail in
  if tail_len > 0 && (tail_len >= bs || extent.Extent.bytes <> extent.Extent.blocks * bs) then
    invalid_arg "Block_reader.of_run: a tail follows full blocks and is shorter than one";
  { dev; extent; buf; cur_block = -1; pos = 0; consume; tail;
    length = extent.Extent.bytes + tail_len }

let of_extent ?buffer dev extent = make ~consume:false ?buffer dev extent

let of_run ?buffer ?tail dev extent = make ~consume:true ?buffer ?tail dev extent

let of_device ?buffer dev =
  let bs = Device.block_size dev in
  let bytes = Device.byte_length dev in
  let blocks = (bytes + bs - 1) / bs in
  of_extent ?buffer dev { Extent.first_block = 0; blocks; bytes }

let position r = r.pos

let length r = r.length

let at_end r = r.pos >= r.length

(* The block past the extent's is the tail: it comes from memory, once
   (the position only moves on). *)
let ensure_block r =
  let bs = Bytes.length r.buf in
  let want = r.pos / bs in
  if want <> r.cur_block then begin
    if want < r.extent.Extent.blocks then
      Device.read_block r.dev (r.extent.Extent.first_block + want) r.buf
    else snd r.tail r.buf;
    r.cur_block <- want
  end

let tail_loaded r = tail_length r.tail > 0 && r.cur_block = r.extent.Extent.blocks

let block_size r = Bytes.length r.buf

(* Move [n] > 0 bytes on.  A consuming reader discards a block the moment
   its position leaves it: at the block's end, or at the extent's end
   inside its last block.  Each block is left once, so each is discarded
   once, also by a reader given up exactly at a block boundary.  The tail
   is no device block: nothing past the extent is discarded. *)
let advance r n =
  let pos = r.pos + n in
  r.pos <- pos;
  if r.consume && pos <= r.extent.Extent.bytes
     && (pos mod Bytes.length r.buf = 0 || pos = r.extent.Extent.bytes)
  then Device.discard r.dev (r.extent.Extent.first_block + ((pos - 1) / Bytes.length r.buf))

let read_span r dst off len =
  let bs = Bytes.length r.buf in
  let within = r.pos mod bs in
  let n = min len (min (bs - within) (r.length - r.pos)) in
  if n <= 0 then 0
  else begin
    ensure_block r;
    Bytes.blit r.buf within dst off n;
    advance r n;
    n
  end

let read_bytes r dst off len =
  let got = ref 0 and more = ref true in
  while !more do
    match read_span r dst (off + !got) (len - !got) with
    | 0 -> more := false
    | n -> got := !got + n
  done;
  !got

let read_record r =
  if at_end r then None
  else begin
    (* varint length, byte by byte straight off the buffered block *)
    let n = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      if at_end r then raise (Codec.Corrupt "Block_reader.read_record: truncated length");
      ensure_block r;
      let b = Char.code (Bytes.unsafe_get r.buf (r.pos mod Bytes.length r.buf)) in
      advance r 1;
      n := !n lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b land 0x80 = 0 then more := false
    done;
    let payload = Bytes.create !n in
    let got = read_bytes r payload 0 !n in
    if got <> !n then raise (Codec.Corrupt "Block_reader.read_record: truncated payload");
    Some (Bytes.unsafe_to_string payload)
  end

let seek r off =
  if off < 0 || off > r.length then invalid_arg "Block_reader.seek: out of range";
  r.pos <- off
