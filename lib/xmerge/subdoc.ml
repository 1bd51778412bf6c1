module Key = Nexsort.Key
module Ordering = Nexsort.Ordering

type child =
  | Elem of { off : int; name : string; attrs : Xmlio.Event.attr list }
  | Text of { off : int; len : int }

(* A byte window over the document, refilled one block span at a time;
   [pos] is the document offset of [win.[wpos]]. *)
type scanner = {
  reader : Extmem.Block_reader.t;
  win : Bytes.t;
  mutable wpos : int;
  mutable wlen : int;
  mutable pos : int;
}

let scanner dev off =
  let reader = Extmem.Block_reader.of_device dev in
  Extmem.Block_reader.seek reader off;
  let win = Bytes.create (Extmem.Block_reader.block_size reader) in
  { reader; win; wpos = 0; wlen = 0; pos = off }

let available s =
  s.wpos < s.wlen
  ||
  let n = Extmem.Block_reader.read_span s.reader s.win 0 (Bytes.length s.win) in
  s.wpos <- 0;
  s.wlen <- n;
  n > 0

let next_char s =
  if not (available s) then invalid_arg "Subdoc: unexpected end of document";
  let c = Bytes.unsafe_get s.win s.wpos in
  s.wpos <- s.wpos + 1;
  s.pos <- s.pos + 1;
  c

let peek_char s = if available s then Some (Bytes.unsafe_get s.win s.wpos) else None

let fail_unsupported c =
  invalid_arg (Printf.sprintf "Subdoc: unsupported markup starting with %C" c)

let decode_value raw =
  if String.contains raw '&' then begin
    let b = Buffer.create (String.length raw) in
    let i = ref 0 in
    while !i < String.length raw do
      if raw.[!i] = '&' then begin
        let j = String.index_from raw !i ';' in
        Buffer.add_string b (Xmlio.Escape.decode_entity (String.sub raw (!i + 1) (j - !i - 1)));
        i := j + 1
      end
      else begin
        Buffer.add_char b raw.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end
  else raw

(* after '<' and the name's first char: the rest of a start tag *)
let read_start_tag s first =
  let name = Buffer.create 12 in
  Buffer.add_char name first;
  let rec name_loop () =
    match next_char s with
    | ' ' | '\t' | '\n' | '\r' -> attrs_loop []
    | '>' -> (Buffer.contents name, [], false)
    | '/' ->
        if next_char s <> '>' then invalid_arg "Subdoc: malformed tag";
        (Buffer.contents name, [], true)
    | c ->
        Buffer.add_char name c;
        name_loop ()
  and attrs_loop acc =
    match next_char s with
    | ' ' | '\t' | '\n' | '\r' -> attrs_loop acc
    | '>' -> (Buffer.contents name, List.rev acc, false)
    | '/' ->
        if next_char s <> '>' then invalid_arg "Subdoc: malformed tag";
        (Buffer.contents name, List.rev acc, true)
    | c ->
        let k = Buffer.create 8 in
        Buffer.add_char k c;
        let rec key () =
          match next_char s with
          | '=' -> ()
          | c ->
              Buffer.add_char k c;
              key ()
        in
        key ();
        let quote = next_char s in
        if quote <> '"' && quote <> '\'' then invalid_arg "Subdoc: unquoted attribute";
        let v = Buffer.create 8 in
        let rec value () =
          let c = next_char s in
          if c <> quote then begin
            Buffer.add_char v c;
            value ()
          end
        in
        value ();
        attrs_loop ((Buffer.contents k, decode_value (Buffer.contents v)) :: acc)
  in
  name_loop ()

let read_element_head s =
  if next_char s <> '<' then invalid_arg "Subdoc: expected an element";
  match next_char s with
  | ('!' | '?' | '/') as c -> fail_unsupported c
  | c -> read_start_tag s c

let parse_shallow dev off =
  let s = scanner dev off in
  let name, attrs, self_closing = read_element_head s in
  if self_closing then (name, attrs, [], s.pos)
  else begin
    let children = ref [] in
    let rec content () =
      match peek_char s with
      | None -> invalid_arg "Subdoc: unexpected end of document"
      | Some '<' -> (
          let tag_off = s.pos in
          ignore (next_char s);
          match next_char s with
          | '/' ->
              let rec to_gt () = if next_char s <> '>' then to_gt () in
              to_gt ()
          | ('!' | '?') as c -> fail_unsupported c
          | c ->
              let cname, cattrs, cself = read_start_tag s c in
              children := Elem { off = tag_off; name = cname; attrs = cattrs } :: !children;
              if not cself then skip_to_close 1;
              content ())
      | Some _ ->
          let toff = s.pos in
          let rec text () =
            match peek_char s with
            | Some '<' | None -> ()
            | Some _ ->
                ignore (next_char s);
                text ()
          in
          text ();
          children := Text { off = toff; len = s.pos - toff } :: !children;
          content ()
    and skip_to_close depth =
      if depth > 0 then
        match next_char s with
        | '<' -> (
            match next_char s with
            | '/' ->
                let rec to_gt () = if next_char s <> '>' then to_gt () in
                to_gt ();
                skip_to_close (depth - 1)
            | ('!' | '?') as c -> fail_unsupported c
            | c ->
                let _, _, cself = read_start_tag s c in
                skip_to_close (if cself then depth else depth + 1))
        | _ -> skip_to_close depth
    in
    content ();
    (name, attrs, List.rev !children, s.pos)
  end

let subtree_end dev off =
  let _, _, _, end_off = parse_shallow dev off in
  end_off

let copy_range dev ~off ~until out =
  let reader = Extmem.Block_reader.of_device dev in
  Extmem.Block_reader.seek reader off;
  let buf = Bytes.create 512 in
  let rec go remaining =
    if remaining > 0 then begin
      let n = Extmem.Block_reader.read_bytes reader buf 0 (min 512 remaining) in
      if n = 0 then invalid_arg "Subdoc: truncated copy";
      Extmem.Block_writer.write_bytes out buf 0 n;
      go (remaining - n)
    end
  in
  go (until - off)

let write_start_tag out name attrs =
  Extmem.Block_writer.write_string out "<";
  Extmem.Block_writer.write_string out name;
  List.iter
    (fun (k, v) ->
      Extmem.Block_writer.write_string out
        (Printf.sprintf " %s=\"%s\"" k (Xmlio.Escape.escape_attr v)))
    attrs;
  Extmem.Block_writer.write_string out ">"

let union_attrs left right =
  left @ List.filter (fun (k, _) -> not (List.mem_assoc k left)) right

let key_of ordering name attrs =
  match Ordering.key_of_start ordering name attrs with
  | Some k -> k
  | None -> invalid_arg "Subdoc: ordering must be scan-evaluable"

(* one sequential pass; stack of (elem_off, name, attrs, next child index,
   my index in my parent) *)
let walk dev ~on_element ~on_text =
  let s = scanner dev 0 in
  let stack = ref [] in (* (off, name, attrs, child_counter ref, parent_off, my_index) *)
  let parent_off () =
    match !stack with
    | (off, _, _, _, _, _) :: _ -> off
    | [] -> -1
  in
  let next_index () =
    match !stack with
    | (_, _, _, counter, _, _) :: _ ->
        let i = !counter in
        incr counter;
        i
    | [] -> 0
  in
  let open_element off name attrs =
    let parent = parent_off () in
    let index = next_index () in
    stack := (off, name, attrs, ref 0, parent, index) :: !stack
  in
  let close_element until =
    match !stack with
    | (off, name, attrs, _, parent, index) :: rest ->
        stack := rest;
        on_element ~parent_off:parent ~index ~name ~attrs ~off ~until
    | [] -> invalid_arg "Subdoc.walk: unbalanced document"
  in
  (* root element *)
  let root_off = s.pos in
  let name, attrs, self_closing = read_element_head s in
  open_element root_off name attrs;
  if self_closing then close_element s.pos
  else begin
    let rec go () =
      if !stack <> [] then begin
        match peek_char s with
        | None -> invalid_arg "Subdoc.walk: unexpected end of document"
        | Some '<' -> (
            let tag_off = s.pos in
            ignore (next_char s);
            match next_char s with
            | '/' ->
                let rec to_gt () = if next_char s <> '>' then to_gt () in
                to_gt ();
                close_element s.pos;
                go ()
            | ('!' | '?') as c -> fail_unsupported c
            | c ->
                let cname, cattrs, cself = read_start_tag s c in
                open_element tag_off cname cattrs;
                if cself then close_element s.pos;
                go ())
        | Some _ ->
            let toff = s.pos in
            let rec text () =
              match peek_char s with
              | Some '<' | None -> ()
              | Some _ ->
                  ignore (next_char s);
                  text ()
            in
            text ();
            on_text ~parent_off:(parent_off ()) ~index:(next_index ()) ~off:toff
              ~len:(s.pos - toff);
            go ()
      end
    in
    go ()
  end
