type component = {
  key : Key.t;
  pos : int;
}

let encode_record ?enc path ~payload =
  let enc =
    match enc with
    | Some e ->
        Extmem.Codec.Enc.clear e;
        e
    | None -> Extmem.Codec.Enc.create ~capacity:(64 + String.length payload) ()
  in
  Extmem.Codec.Enc.add_varint enc (List.length path);
  List.iter
    (fun { key; pos } ->
      Key.encode_enc enc key;
      Extmem.Codec.Enc.add_varint enc pos)
    path;
  Extmem.Codec.Enc.add_raw enc payload;
  Extmem.Codec.Enc.contents enc

let decode_path s =
  let c = Extmem.Codec.cursor s in
  let n = Extmem.Codec.get_varint c in
  let rec go n acc =
    if n = 0 then List.rev acc
    else begin
      let key = Key.decode c in
      let pos = Extmem.Codec.get_varint c in
      go (n - 1) ({ key; pos } :: acc)
    end
  in
  go n []

let payload_offset s =
  let c = Extmem.Codec.cursor s in
  let n = Extmem.Codec.get_varint c in
  for _ = 1 to n do
    Key.skip c;
    Extmem.Codec.skip_varint c
  done;
  c.Extmem.Codec.pos

let decode_payload s =
  let off = payload_offset s in
  String.sub s off (String.length s - off)

(* Compared directly on the encoded bytes via [Key.compare_cursors]: no
   [Key.t] trees are built per comparison, which matters because this runs
   O(n log n) times inside external merge-sorts. *)
let compare_encoded a b =
  let ca = Extmem.Codec.cursor a and cb = Extmem.Codec.cursor b in
  let na = Extmem.Codec.get_varint ca and nb = Extmem.Codec.get_varint cb in
  let rec go i =
    if i >= na || i >= nb then compare na nb
    else begin
      let c = Key.compare_cursors ca cb in
      if c <> 0 then c
      else begin
        let pa = Extmem.Codec.get_varint ca and pb = Extmem.Codec.get_varint cb in
        let c = compare pa pb in
        if c <> 0 then c else go (i + 1)
      end
    end
  in
  go 0

let rec key_display key =
  match key with
  | Key.Null -> "·"
  | Key.Num f -> if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f
  | Key.Str s -> s
  | Key.Rev k -> "~" ^ key_display k
  | Key.Tuple ks -> String.concat "+" (List.map key_display ks)

let path_to_string path =
  if path = [] then "/"
  else String.concat "" (List.map (fun { key; _ } -> "/" ^ key_display key) path)
