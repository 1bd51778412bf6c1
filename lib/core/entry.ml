type t =
  | Start of {
      level : int;
      pos : int;
      name : string;
      attrs : Xmlio.Event.attr list;
      key : Key.t option;
    }
  | End of { level : int; pos : int; key : Key.t option }
  | Text of { level : int; pos : int; content : string }
  | Run_ptr of {
      level : int;
      pos : int;
      key : Key.t;
      run : Extmem.Run_store.id;
      bytes : int;
    }

let level = function
  | Start { level; _ } | End { level; _ } | Text { level; _ } | Run_ptr { level; _ } -> level

let tag_start = 0
let tag_end = 1
let tag_text = 2
let tag_run_ptr = 3

let put_name enc dict e name =
  match enc with
  | Config.Plain -> Extmem.Codec.Enc.add_string e name
  | Config.Dict | Config.Packed -> Extmem.Codec.Enc.add_varint e (Xmlio.Dict.intern dict name)

let get_name enc dict c =
  match enc with
  | Config.Plain -> Extmem.Codec.get_string c
  | Config.Dict | Config.Packed -> Xmlio.Dict.lookup dict (Extmem.Codec.get_varint c)

(* The tail goes last, so the fields before it keep their offsets, and
   unframed: it is the payload's remaining bytes, so an empty tail costs
   no byte. *)
let add_run_ptr b ~level ~pos ~key ~run ~bytes ~tail ~tail_len =
  Extmem.Codec.Enc.add_u8 b tag_run_ptr;
  Extmem.Codec.Enc.add_varint b level;
  Extmem.Codec.Enc.add_varint b pos;
  Key.encode_enc b key;
  Extmem.Codec.Enc.add_varint b run;
  Extmem.Codec.Enc.add_varint b bytes;
  Extmem.Codec.Enc.add_raw_substring b tail 0 tail_len

let encode_run_ptr_into b ~level ~pos ~key ~run ~bytes ~tail ~tail_len =
  Extmem.Codec.Enc.clear b;
  add_run_ptr b ~level ~pos ~key ~run ~bytes ~tail ~tail_len

let encode_into enc dict b e =
  Extmem.Codec.Enc.clear b;
  (match e with
  | Start { level; pos; name; attrs; key } ->
      Extmem.Codec.Enc.add_u8 b tag_start;
      Extmem.Codec.Enc.add_varint b level;
      Extmem.Codec.Enc.add_varint b pos;
      put_name enc dict b name;
      Key.encode_opt_enc b key;
      Extmem.Codec.Enc.add_varint b (List.length attrs);
      List.iter
        (fun (k, v) ->
          put_name enc dict b k;
          Extmem.Codec.Enc.add_string b v)
        attrs
  | End { level; pos; key } ->
      Extmem.Codec.Enc.add_u8 b tag_end;
      Extmem.Codec.Enc.add_varint b level;
      Extmem.Codec.Enc.add_varint b pos;
      Key.encode_opt_enc b key
  | Text { level; pos; content } ->
      Extmem.Codec.Enc.add_u8 b tag_text;
      Extmem.Codec.Enc.add_varint b level;
      Extmem.Codec.Enc.add_varint b pos;
      Extmem.Codec.Enc.add_string b content
  | Run_ptr { level; pos; key; run; bytes } ->
      add_run_ptr b ~level ~pos ~key ~run ~bytes ~tail:"" ~tail_len:0)

let encode_to enc dict b e =
  encode_into enc dict b e;
  Extmem.Codec.Enc.contents b

let encode enc dict e = encode_to enc dict (Extmem.Codec.Enc.create ~capacity:64 ()) e

(* Encode a Start entry straight from a parser-packed event: no [t] record,
   no attr assoc list, and when the parser shares the session dict the
   name ids are already resolved (no dictionary probe here). *)
let encode_start_of_packed_into enc dict b ~level ~pos ~key (pk : Xmlio.Event.packed) =
  Extmem.Codec.Enc.clear b;
  Extmem.Codec.Enc.add_u8 b tag_start;
  Extmem.Codec.Enc.add_varint b level;
  Extmem.Codec.Enc.add_varint b pos;
  let put_packed_name name id =
    match enc with
    | Config.Plain -> Extmem.Codec.Enc.add_string b name
    | Config.Dict | Config.Packed ->
        Extmem.Codec.Enc.add_varint b (if id >= 0 then id else Xmlio.Dict.intern dict name)
  in
  put_packed_name pk.Xmlio.Event.pname pk.Xmlio.Event.pname_id;
  Key.encode_opt_enc b key;
  let n = pk.Xmlio.Event.pnattrs in
  Extmem.Codec.Enc.add_varint b n;
  for i = 0 to n - 1 do
    put_packed_name pk.Xmlio.Event.pattr_names.(i) pk.Xmlio.Event.pattr_ids.(i);
    Extmem.Codec.Enc.add_string b pk.Xmlio.Event.pattr_values.(i)
  done

let encode_start_of_packed enc dict b ~level ~pos ~key pk =
  encode_start_of_packed_into enc dict b ~level ~pos ~key pk;
  Extmem.Codec.Enc.contents b

let encode_text_into b ~level ~pos content =
  Extmem.Codec.Enc.clear b;
  Extmem.Codec.Enc.add_u8 b tag_text;
  Extmem.Codec.Enc.add_varint b level;
  Extmem.Codec.Enc.add_varint b pos;
  Extmem.Codec.Enc.add_string b content

let encode_text_to b ~level ~pos content =
  encode_text_into b ~level ~pos content;
  Extmem.Codec.Enc.contents b

let encode_end_into b ~level ~pos ~key =
  Extmem.Codec.Enc.clear b;
  Extmem.Codec.Enc.add_u8 b tag_end;
  Extmem.Codec.Enc.add_varint b level;
  Extmem.Codec.Enc.add_varint b pos;
  Key.encode_opt_enc b key

let encode_end_to b ~level ~pos ~key =
  encode_end_into b ~level ~pos ~key;
  Extmem.Codec.Enc.contents b

let decode enc dict s =
  let c = Extmem.Codec.cursor s in
  let tag = Extmem.Codec.get_u8 c in
  let level = Extmem.Codec.get_varint c in
  let pos = Extmem.Codec.get_varint c in
  if tag = tag_start then begin
    let name = get_name enc dict c in
    let key = Key.decode_opt c in
    let nattrs = Extmem.Codec.get_varint c in
    (* explicit loop: the order of decoding side effects matters *)
    let rec read_attrs n acc =
      if n = 0 then List.rev acc
      else begin
        let k = get_name enc dict c in
        let v = Extmem.Codec.get_string c in
        read_attrs (n - 1) ((k, v) :: acc)
      end
    in
    let attrs = read_attrs nattrs [] in
    Start { level; pos; name; attrs; key }
  end
  else if tag = tag_end then End { level; pos; key = Key.decode_opt c }
  else if tag = tag_text then Text { level; pos; content = Extmem.Codec.get_string c }
  else if tag = tag_run_ptr then begin
    let key = Key.decode c in
    let run = Extmem.Codec.get_varint c in
    let bytes = Extmem.Codec.get_varint c in
    (* the tail: the payload's remaining bytes *)
    Run_ptr { level; pos; key; run; bytes }
  end
  else raise (Extmem.Codec.Corrupt (Printf.sprintf "Entry.decode: bad tag %d" tag))

let is_run_ptr payload = String.length payload > 0 && Char.code payload.[0] = tag_run_ptr

let run_of_ptr payload =
  let c = Extmem.Codec.cursor payload in
  if Extmem.Codec.get_u8 c <> tag_run_ptr then invalid_arg "Entry.run_of_ptr: not a run pointer";
  Extmem.Codec.skip_varint c;
  Extmem.Codec.skip_varint c;
  Key.skip c;
  let run = Extmem.Codec.get_varint c in
  Extmem.Codec.skip_varint c (* bytes *);
  (run, c.Extmem.Codec.pos)

(* ---- output: entries in document order back into XML ----

   Both consumers close elements from level transitions alone (§3.2's
   end-tag recovery), so [Packed] entries, which have no [End] entries,
   need nothing more: an entry at level [l] first closes every open
   element at level [l] or deeper. *)

module Serializer = struct
  type t = {
    enc : Config.encoding;
    dict : Xmlio.Dict.t;
    w : Xmlio.Writer.t;
    (* the open elements, innermost last: names and levels *)
    mutable names : string array;
    mutable levels : int array;
    mutable depth : int;
  }

  let create enc dict w =
    { enc; dict; w; names = Array.make 16 ""; levels = Array.make 16 0; depth = 0 }

  let close_to t level =
    while t.depth > 0 && t.levels.(t.depth - 1) >= level do
      t.depth <- t.depth - 1;
      Xmlio.Writer.end_element t.w t.names.(t.depth)
    done

  let push_open t name level =
    if t.depth = Array.length t.names then begin
      let grow a x =
        let b = Array.make (2 * t.depth) x in
        Array.blit a 0 b 0 t.depth;
        b
      in
      t.names <- grow t.names "";
      t.levels <- grow t.levels 0
    end;
    t.names.(t.depth) <- name;
    t.levels.(t.depth) <- level;
    t.depth <- t.depth + 1

  (* A length-prefixed slice: leaves the cursor at its first byte and
     returns its length. *)
  let slice c =
    let n = Extmem.Codec.get_varint c in
    Extmem.Codec.need c n;
    n

  let entry t payload =
    let c = Extmem.Codec.cursor payload in
    let tag = Extmem.Codec.get_u8 c in
    let level = Extmem.Codec.get_varint c in
    Extmem.Codec.skip_varint c (* pos *);
    close_to t level;
    if tag = tag_start then begin
      let name = get_name t.enc t.dict c in
      Key.skip_opt c;
      Xmlio.Writer.start_element t.w name;
      for _ = 1 to Extmem.Codec.get_varint c do
        let k = get_name t.enc t.dict c in
        let n = slice c in
        Xmlio.Writer.attribute t.w k payload c.Extmem.Codec.pos n;
        c.Extmem.Codec.pos <- c.Extmem.Codec.pos + n
      done;
      push_open t name level
    end
    else if tag = tag_text then begin
      let n = slice c in
      Xmlio.Writer.text t.w payload c.Extmem.Codec.pos n
    end
    else if tag = tag_end then () (* closed by [close_to] *)
    else if tag = tag_run_ptr then invalid_arg "Entry.Serializer: unexpanded run pointer"
    else raise (Extmem.Codec.Corrupt (Printf.sprintf "Entry.Serializer: bad tag %d" tag))

  let finish t = close_to t 1
end

module Events = struct
  type t = {
    enc : Config.encoding;
    dict : Xmlio.Dict.t;
    opens : (string * int) Extmem.Vec.t;
  }

  let create enc dict = { enc; dict; opens = Extmem.Vec.create () }

  let close_to t level emit =
    while Extmem.Vec.length t.opens > 0 && snd (Extmem.Vec.top t.opens) >= level do
      emit (Xmlio.Event.End (fst (Extmem.Vec.pop t.opens)))
    done

  let entry t payload emit =
    let e = decode t.enc t.dict payload in
    close_to t (level e) emit;
    match e with
    | Start { name; attrs; level; _ } ->
        emit (Xmlio.Event.Start (name, attrs));
        Extmem.Vec.push t.opens (name, level)
    | End _ -> () (* closed by [close_to] *)
    | Text { content; _ } -> emit (Xmlio.Event.Text content)
    | Run_ptr _ -> invalid_arg "Entry.Events: unexpanded run pointer"

  let finish t emit = close_to t 1 emit
end

module View = struct
  type kind =
    | Vstart
    | Vend
    | Vtext
    | Vrun_ptr

  type t = {
    payload : string;
    enc : Config.encoding;
    kind : kind;
    level : int;
    pos : int;
    body : int;
  }

  let of_payload enc payload =
    let c = Extmem.Codec.cursor payload in
    let tag = Extmem.Codec.get_u8 c in
    let level = Extmem.Codec.get_varint c in
    let pos = Extmem.Codec.get_varint c in
    let kind =
      if tag = tag_start then Vstart
      else if tag = tag_end then Vend
      else if tag = tag_text then Vtext
      else if tag = tag_run_ptr then Vrun_ptr
      else raise (Extmem.Codec.Corrupt (Printf.sprintf "Entry.View: bad tag %d" tag))
    in
    { payload; enc; kind; level; pos; body = c.Extmem.Codec.pos }

  let payload v = v.payload
  let kind v = v.kind
  let level v = v.level
  let pos v = v.pos

  let skip_name v c =
    match v.enc with
    | Config.Plain -> Extmem.Codec.skip_string c
    | Config.Dict | Config.Packed -> Extmem.Codec.skip_varint c

  (* Field reads below re-cursor into the payload on demand: nothing past
     [body] is touched (or allocated) unless a consumer asks for it. *)

  let start_key v =
    let c = Extmem.Codec.cursor ~pos:v.body v.payload in
    skip_name v c;
    Key.decode_opt c

  let end_key v = Key.decode_opt (Extmem.Codec.cursor ~pos:v.body v.payload)

  let sibling_key v =
    match v.kind with
    | Vstart -> ( match start_key v with Some k -> k | None -> Key.Null)
    | Vrun_ptr -> Key.decode (Extmem.Codec.cursor ~pos:v.body v.payload)
    | Vtext | Vend -> Key.Null

end

let pp ppf = function
  | Start { level; pos; name; attrs; key } ->
      Format.fprintf ppf "Start(l%d p%d <%s%s> key=%s)" level pos name
        (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%S" k v) attrs))
        (match key with Some k -> Key.to_string k | None -> "-")
  | End { level; pos; key } ->
      Format.fprintf ppf "End(l%d p%d key=%s)" level pos
        (match key with Some k -> Key.to_string k | None -> "-")
  | Text { level; pos; content } -> Format.fprintf ppf "Text(l%d p%d %S)" level pos content
  | Run_ptr { level; pos; key; run; bytes } ->
      Format.fprintf ppf "Run_ptr(l%d p%d key=%s run=%d %dB)" level pos (Key.to_string key) run
        bytes
