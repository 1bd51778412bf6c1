(* Resident-window invariants:
   - the deque holds blocks [front_idx, front_idx + count) of the stack's
     address space, each with a dirty flag;
   - every live byte (offset < length) is either in a resident block or in
     a block that was flushed to the device at some point and not dirtied
     since eviction (so the device copy is current);
   - [flushed] is the allocation frontier of the device: blocks with index
     < flushed exist on the device.

   Window memory is one [Frame_arena] lease under "<name> window": the
   [grant] blocks the memory plan gives the window ([resize]) plus, with
   [~elastic:true], blocks it grew over idle budget instead of evicting,
   kept until the next [resize].  A window granted 0 blocks holds
   none.  Frame buffers are recycled through the arena pool (zero-filled
   on reuse, so a recycled block is indistinguishable from a fresh
   [Bytes.create]). *)

type frame = {
  data : bytes;
  mutable dirty : bool;
}

type t = {
  dev : Device.t;
  bs : int;
  arena : Frame_arena.t;
  window : Frame_arena.lease; (* [grant] blocks, and elastic ones above it *)
  mutable grant : int;        (* the blocks the plan grants the window *)
  elastic : bool;
  resident : frame Deque.t;
  mutable front_idx : int; (* block index of the deque's front *)
  mutable len : int;       (* logical byte length = top of stack *)
  mutable flushed : int;   (* device allocation frontier, in blocks *)
  scratch : bytes;         (* for reads that bypass the window *)
  mutable scratch_idx : int; (* block currently in scratch, -1 = none *)
  trailer : bytes;         (* the top entry's u32 length, reused by pop/top *)
  mutable span : bytes;    (* a spanning top entry's payload, for the cursors *)
  (* paging metrics (see Obs.Probe.ext_stack) *)
  mutable pushes : int;
  mutable pops : int;
  mutable page_ins : int;    (* device reads back into the window/scratch *)
  mutable writebacks : int;  (* evicted or spilled blocks written out *)
  mutable high_water : int;  (* max logical length ever, bytes *)
}

let create ?(name = "ext stack") ?(resident_blocks = 1) ?arena ?(elastic = false) dev =
  if resident_blocks < 1 then invalid_arg "Ext_stack.create: resident_blocks must be >= 1";
  let arena = match arena with Some a -> a | None -> Frame_arena.create () in
  let bs = Device.block_size dev in
  {
    dev;
    bs;
    arena;
    window = Frame_arena.lease arena ~who:(name ^ " window") resident_blocks;
    grant = resident_blocks;
    (* an unbudgeted lease always grows, which would disable eviction *)
    elastic = elastic && Frame_arena.budget arena <> None;
    resident = Deque.create ();
    front_idx = 0;
    len = 0;
    flushed = 0;
    scratch = Bytes.create bs;
    scratch_idx = -1;
    trailer = Bytes.create 4;
    span = Bytes.empty;
    pushes = 0;
    pops = 0;
    page_ins = 0;
    writebacks = 0;
    high_water = 0;
  }

let length st = st.len

let is_empty st = st.len = 0

let resident_blocks st = Deque.length st.resident

let io_stats st = Device.stats st.dev

let device st = st.dev

let pushes st = st.pushes

let pops st = st.pops

let page_ins st = st.page_ins

let writebacks st = st.writebacks

let high_water st = st.high_water

(* Block index just past the resident window. *)
let back_limit st = st.front_idx + Deque.length st.resident

let is_resident st b =
  Deque.length st.resident > 0 && b >= st.front_idx && b < back_limit st

let frame_of st b =
  assert (is_resident st b);
  Deque.get st.resident (b - st.front_idx)

(* Window frames come from (and return to) the arena pool.  A window
   granted no blocks holds no frames, so every push, pop or top on it
   needs one from here. *)
let fresh_frame st =
  assert (st.grant > 0);
  { data = Frame_arena.take st.arena st.bs; dirty = false }

let drop_frame st frame = Frame_arena.give st.arena frame.data

(* Write block [idx] of the stack's address space to the device, extending
   the device if this block has never been flushed before. *)
let flush_block st idx frame =
  while st.flushed <= idx do
    ignore (Device.allocate st.dev 1);
    st.flushed <- st.flushed + 1
  done;
  Device.write_block st.dev idx frame.data;
  st.writebacks <- st.writebacks + 1;
  frame.dirty <- false

let evict_front st =
  let frame = Deque.peek_front st.resident in
  if frame.dirty then flush_block st st.front_idx frame;
  ignore (Deque.pop_front st.resident);
  drop_frame st frame;
  st.front_idx <- st.front_idx + 1

(* An elastic window grows over idle budget blocks before it evicts and
   keeps them until the next [resize]. *)
let maybe_evict st =
  while
    Deque.length st.resident > Frame_arena.lease_blocks st.window
    && not (st.elastic && Frame_arena.try_grow st.window 1)
  do
    evict_front st
  done

(* Dirty blocks are written back before the lease shrinks, so the device
   holds every live byte and growing again needs no I/O of its own. *)
let resize st n =
  if n < 0 then invalid_arg "Ext_stack.resize: negative window";
  while Deque.length st.resident > n do
    evict_front st
  done;
  let held = Frame_arena.lease_blocks st.window in
  if n > held then Frame_arena.grow st.window (n - held)
  else if n < held then Frame_arena.shrink st.window (held - n);
  st.grant <- n

(* Teardown: every window frame goes back to the arena pool and the
   lease is released.  Nothing is flushed — close is for ending a
   session (successful or aborted), not for persisting the stack, so it
   costs no I/O. *)
let close st =
  while Deque.length st.resident > 0 do
    let frame = Deque.pop_back st.resident in
    drop_frame st frame
  done;
  Frame_arena.close_lease st.window

(* Make block [b] resident, reading it from the device if it was flushed
   before and contains live bytes, zero-filling otherwise.  Only blocks
   adjacent to the window are ever requested. *)
let page_in_front st =
  let b = st.front_idx - 1 in
  assert (b >= 0);
  let frame = fresh_frame st in
  if b < st.flushed then begin
    Device.read_block st.dev b frame.data;
    st.page_ins <- st.page_ins + 1
  end;
  Deque.push_front st.resident frame;
  st.front_idx <- b

let append_back st =
  let b = back_limit st in
  let frame = fresh_frame st in
  if b < st.flushed && b * st.bs < st.len then begin
    (* The block holds live bytes below [len] that were flushed earlier;
       re-read so they survive the coming writes. *)
    Device.read_block st.dev b frame.data;
    st.page_ins <- st.page_ins + 1
  end;
  Deque.push_back st.resident frame

(* Ensure the block containing the next byte to write is resident. *)
let ensure_tail st =
  if Deque.length st.resident = 0 then begin
    st.front_idx <- st.len / st.bs;
    append_back st
  end
  else if st.len >= back_limit st * st.bs then begin
    append_back st;
    maybe_evict st
  end

let append_subbytes st s off n =
  let rec go off n =
    if n > 0 then begin
      ensure_tail st;
      let within = st.len mod st.bs in
      let room = st.bs - within in
      let k = min n room in
      let frame = frame_of st (st.len / st.bs) in
      Bytes.blit s off frame.data within k;
      frame.dirty <- true;
      st.len <- st.len + k;
      if st.len > st.high_water then st.high_water <- st.len;
      go (off + k) (n - k)
    end
  in
  go off n

(* One byte of framing; crosses block boundaries exactly as
   [append_subbytes] would, so the window sees the same sequence of
   appends and evictions whether an entry is written whole or in pieces. *)
let append_byte st c =
  ensure_tail st;
  let frame = frame_of st (st.len / st.bs) in
  Bytes.unsafe_set frame.data (st.len mod st.bs) (Char.unsafe_chr c);
  frame.dirty <- true;
  st.len <- st.len + 1;
  if st.len > st.high_water then st.high_water <- st.len

let varint_size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let framed_size payload =
  let n = String.length payload in
  varint_size n + n + 4

(* Whether one resident block holds all [n] bytes at logical offset
   [pos]: the byte-at-a-time paths are then not needed. *)
let resident_span st pos n =
  pos >= 0 && (pos mod st.bs) + n <= st.bs && is_resident st (pos / st.bs)

let resident_frame st pos = Deque.get st.resident ((pos / st.bs) - st.front_idx)

(* A frame written byte by byte, crossing blocks as it goes. *)
let push_spanning st payload off n =
  let rec header v =
    if v < 0x80 then append_byte st v
    else begin
      append_byte st (0x80 lor (v land 0x7f));
      header (v lsr 7)
    end
  in
  header n;
  append_subbytes st payload off n;
  append_byte st (n land 0xff);
  append_byte st ((n lsr 8) land 0xff);
  append_byte st ((n lsr 16) land 0xff);
  append_byte st ((n lsr 24) land 0xff)

(* The frame ([Codec.put_varint] header, payload, [Codec.put_u32]
   trailer) is written straight into the window: in one piece when it
   fits in the resident block at the top, else byte by byte.  Both ways
   append and evict exactly the same blocks. *)
let push_bytes st payload off n =
  let total = varint_size n + n + 4 in
  if resident_span st st.len total then begin
    let frame = resident_frame st st.len in
    let data = frame.data in
    let rec header i v =
      if v < 0x80 then begin
        Bytes.unsafe_set data i (Char.unsafe_chr v);
        i + 1
      end
      else begin
        Bytes.unsafe_set data i (Char.unsafe_chr (0x80 lor (v land 0x7f)));
        header (i + 1) (v lsr 7)
      end
    in
    let i = header (st.len mod st.bs) n in
    Bytes.blit payload off data i n;
    Codec.set_u32_at data (i + n) n;
    frame.dirty <- true;
    st.len <- st.len + total;
    if st.len > st.high_water then st.high_water <- st.len
  end
  else push_spanning st payload off n;
  st.pushes <- st.pushes + 1;
  st.scratch_idx <- -1

let push st payload = push_bytes st (Bytes.unsafe_of_string payload) 0 (String.length payload)

(* Bring block [b] into the window, reading it back from the device when it
   was flushed earlier.  Blocks are added at the front (pops walking down)
   or at the back (an entry spanning upward past the window). *)
let make_resident st b =
  if Deque.length st.resident = 0 then st.front_idx <- b + 1;
  while st.front_idx > b do
    page_in_front st
  done;
  while b >= back_limit st do
    let nb = back_limit st in
    let frame = fresh_frame st in
    if nb < st.flushed then begin
      Device.read_block st.dev nb frame.data;
      st.page_ins <- st.page_ins + 1
    end;
    Deque.push_back st.resident frame
  done

(* Copy [n] bytes starting at logical offset [pos] into [dst.(dst_off..)],
   paging blocks in at the front of the window as a pop would. *)
let read_resident st pos dst dst_off n =
  let rec go pos dst_off n =
    if n > 0 then begin
      let b = pos / st.bs in
      make_resident st b;
      let frame = frame_of st b in
      let within = pos mod st.bs in
      let k = min n (st.bs - within) in
      Bytes.blit frame.data within dst dst_off k;
      go (pos + k) (dst_off + k) (n - k)
    end
  in
  go pos dst_off n

(* Truncate to [pos], dropping resident blocks that are now fully above the
   top (free), then evict what a pop paged in beyond the window. *)
let truncate_to st pos =
  if pos < 0 || pos > st.len then invalid_arg "Ext_stack.truncate_to: out of range";
  st.len <- pos;
  let rec drop () =
    if Deque.length st.resident > 0 && (back_limit st - 1) * st.bs >= st.len then begin
      let frame = Deque.pop_back st.resident in
      drop_frame st frame;
      drop ()
    end
  in
  drop ();
  maybe_evict st;
  st.scratch_idx <- -1

(* Payload length of the top entry, from its u32 trailer. *)
let top_payload_length st =
  if st.len = 0 then invalid_arg "Ext_stack: empty stack";
  let pos = st.len - 4 in
  if resident_span st pos 4 then
    Codec.get_u32_at (Bytes.unsafe_to_string (resident_frame st pos).data) (pos mod st.bs)
  else begin
    read_resident st pos st.trailer 0 4;
    Codec.get_u32_at (Bytes.unsafe_to_string st.trailer) 0
  end

let top_entry_start st n =
  let start = st.len - 4 - n - varint_size n in
  if start < 0 then raise (Codec.Corrupt "Ext_stack: bad entry frame");
  start

(* A cursor over the [n] payload bytes at [pos]: over the resident block
   holding them when [in_place], else over a copy in [span].  Either way
   nothing is allocated but the cursor (and [span], when an entry
   outgrows it). *)
let payload_cursor st pos n ~in_place =
  if in_place then
    { Codec.buf = Bytes.unsafe_to_string (resident_frame st pos).data; pos = pos mod st.bs }
  else begin
    if Bytes.length st.span < n then st.span <- Bytes.create (max n (2 * Bytes.length st.span));
    read_resident st pos st.span 0 n;
    { Codec.buf = Bytes.unsafe_to_string st.span; pos = 0 }
  end

(* The cursors read in place only from the block at the top of the
   window: eviction takes blocks from the bottom and the top block
   survives a truncation that leaves live bytes in it, so the cursor's
   bytes stay put until the next operation on the stack. *)
let top_cursor st =
  let n = top_payload_length st in
  let pos = top_entry_start st n + varint_size n in
  let in_place = resident_span st pos n && pos / st.bs = (st.len - 1) / st.bs in
  let c = payload_cursor st pos n ~in_place in
  maybe_evict st;
  c

let pop_cursor st =
  let n = top_payload_length st in
  let start = top_entry_start st n in
  let pos = start + varint_size n in
  let in_place = resident_span st pos n && pos / st.bs * st.bs < start in
  let c = payload_cursor st pos n ~in_place in
  truncate_to st start;
  st.pops <- st.pops + 1;
  c

(* The copying forms: the trailer read again is resident by then. *)
let copy_payload st cursor =
  let n = top_payload_length st in
  let c = cursor st in
  String.sub c.Codec.buf c.Codec.pos n

let pop st = copy_payload st pop_cursor

let top st = copy_payload st top_cursor

(* Forward scan: resident blocks are read in place; evicted blocks are
   streamed through the scratch buffer without touching the window.  A
   scan visits blocks in ascending order and each block change in the
   scratch costs one page-in. *)
let scan_block st b =
  if is_resident st b then (Deque.get st.resident (b - st.front_idx)).data
  else begin
    if st.scratch_idx <> b then begin
      assert (b < st.flushed);
      Device.read_block st.dev b st.scratch;
      st.page_ins <- st.page_ins + 1;
      st.scratch_idx <- b
    end;
    st.scratch
  end

(* Copy [n] bytes from [pos] one block span at a time. *)
let read_bytes_scanning st pos dst dst_off n =
  let pos = ref pos and dst_off = ref dst_off and n = ref n in
  while !n > 0 do
    let within = !pos mod st.bs in
    let k = min !n (st.bs - within) in
    Bytes.blit (scan_block st (!pos / st.bs)) within dst !dst_off k;
    pos := !pos + k;
    dst_off := !dst_off + k;
    n := !n - k
  done

(* The entry starting at [!cur]; advances [cur] past its trailer, which
   is skipped unread. *)
let scan_entry st cur =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let b = Char.code (Bytes.get (scan_block st (!cur / st.bs)) (!cur mod st.bs)) in
    incr cur;
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  let payload =
    if resident_span st !cur !n then
      Bytes.sub_string (resident_frame st !cur).data (!cur mod st.bs) !n
    else begin
      let payload = Bytes.create !n in
      read_bytes_scanning st !cur payload 0 !n;
      Bytes.unsafe_to_string payload
    end
  in
  cur := !cur + !n + 4;
  if !cur > st.len then raise (Codec.Corrupt "Ext_stack: truncated entry during scan");
  payload

let iter_entries_from st ~pos f =
  let cur = ref pos in
  while !cur < st.len do
    f (scan_entry st cur)
  done

let cursor_from st ~pos =
  let cur = ref pos in
  fun () -> if !cur >= st.len then None else Some (scan_entry st cur)
