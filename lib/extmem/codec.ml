exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let put_varint buf n =
  if n < 0 then invalid_arg "Codec.put_varint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

(* Emit the raw 63-bit pattern of [z] as a varint: logical shifts only, so
   "negative" ints (bit 62 set) encode as 9-byte varints instead of being
   rejected.  Same bytes as [put_varint] for non-negative inputs. *)
let put_uvarint buf z =
  let rec go z =
    if z land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr z)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (z land 0x7f)));
      go (z lsr 7)
    end
  in
  go z

let zigzag_of_int n = (n lsl 1) lxor (n asr 62)
let int_of_zigzag z = (z lsr 1) lxor (-(z land 1))

let put_zigzag buf n = put_uvarint buf (zigzag_of_int n)

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let put_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let put_f64 buf f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
  done

module Enc = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(capacity = 256) () = { buf = Bytes.create (max 16 capacity); len = 0 }
  let clear t = t.len <- 0
  let length t = t.len

  let ensure t extra =
    let need = t.len + extra in
    if need > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf * 2) in
      while !cap < need do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit t.buf 0 b 0 t.len;
      t.buf <- b
    end

  let add_u8 t n =
    ensure t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (n land 0xff));
    t.len <- t.len + 1

  (* Worst case 9 bytes for a 63-bit int; reserve once, then unsafe stores. *)
  let add_uvarint t z =
    ensure t 9;
    let b = t.buf in
    let i = ref t.len in
    let z = ref z in
    while !z land lnot 0x7f <> 0 do
      Bytes.unsafe_set b !i (Char.unsafe_chr (0x80 lor (!z land 0x7f)));
      incr i;
      z := !z lsr 7
    done;
    Bytes.unsafe_set b !i (Char.unsafe_chr !z);
    t.len <- !i + 1

  let add_varint t n =
    if n < 0 then invalid_arg "Codec.Enc.add_varint: negative";
    add_uvarint t n

  let add_zigzag t n = add_uvarint t (zigzag_of_int n)

  let add_string t s =
    let n = String.length s in
    add_varint t n;
    ensure t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let add_substring t s off len =
    add_varint t len;
    ensure t len;
    Bytes.blit_string s off t.buf t.len len;
    t.len <- t.len + len

  let add_raw_substring t s off n =
    ensure t n;
    Bytes.blit_string s off t.buf t.len n;
    t.len <- t.len + n

  let add_raw t s = add_raw_substring t s 0 (String.length s)

  let add_u32 t v =
    ensure t 4;
    let b = t.buf and i = t.len in
    Bytes.unsafe_set b i (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set b (i + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set b (i + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set b (i + 3) (Char.unsafe_chr ((v lsr 24) land 0xff));
    t.len <- i + 4

  let add_f64 t f =
    ensure t 8;
    Bytes.set_int64_le t.buf t.len (Int64.bits_of_float f);
    t.len <- t.len + 8

  let contents t = Bytes.sub_string t.buf 0 t.len
  let buffer t = t.buf
end

type cursor = {
  buf : string;
  mutable pos : int;
}

let cursor ?(pos = 0) buf = { buf; pos }

let at_end c = c.pos >= String.length c.buf

let need c n =
  if c.pos + n > String.length c.buf then
    corrupt "Codec: truncated input (need %d bytes at %d, have %d)" n c.pos (String.length c.buf)

let get_u8 c =
  need c 1;
  let b = Char.code (String.unsafe_get c.buf c.pos) in
  c.pos <- c.pos + 1;
  b

let get_varint c =
  let rec go shift acc =
    if shift > 62 then corrupt "Codec: varint too long";
    let b = get_u8 c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_zigzag c = int_of_zigzag (get_varint c)

let get_string c =
  let n = get_varint c in
  need c n;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let get_string_slice c =
  let n = get_varint c in
  need c n;
  let off = c.pos in
  c.pos <- off + n;
  (off, n)

let skip_string c = ignore (get_string_slice c : int * int)

let skip_varint c =
  let rec go () = if get_u8 c land 0x80 <> 0 then go () in
  go ()

let get_u32 c =
  need c 4;
  let b i = Char.code (String.unsafe_get c.buf (c.pos + i)) in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  c.pos <- c.pos + 4;
  v

let get_f64 c =
  need c 8;
  let b i = Char.code (String.unsafe_get c.buf (c.pos + i)) in
  let lo = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  let hi = b 4 lor (b 5 lsl 8) lor (b 6 lsl 16) lor (b 7 lsl 24) in
  c.pos <- c.pos + 8;
  Int64.float_of_bits
    (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))

(* Lexicographic byte compare of two substrings, same order as
   [String.compare] restricted to the slices. *)
let compare_sub a ao al b bo bl =
  let n = if al < bl then al else bl in
  let rec go i =
    if i = n then Stdlib.compare al bl
    else
      let ca = String.unsafe_get a (ao + i) and cb = String.unsafe_get b (bo + i) in
      if Char.equal ca cb then go (i + 1) else Char.compare ca cb
  in
  go 0

let set_u32_at b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xff))

let get_u32_at s off =
  let b i = Char.code s.[off + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
