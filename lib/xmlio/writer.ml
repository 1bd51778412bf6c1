(* Where the bytes go: matched per write, so a write is a direct call
   into the buffer or the block writer (no closure per call). *)
type out =
  | To_buffer of Buffer.t
  | To_block of Extmem.Block_writer.t
  | To_fn of (string -> unit)

type t = {
  out : out;
  indent : bool;
  mutable depth : int;
  mutable open_tag : bool;     (* a '<name attrs' is open, '>' not yet emitted *)
  mutable had_children : bool; (* current element got child markup (for indent) *)
}

let put t s =
  match t.out with
  | To_buffer b -> Buffer.add_string b s
  | To_block w ->
      (* most markup is one byte: store it rather than blit it *)
      if String.length s = 1 then Extmem.Block_writer.write_char w (String.unsafe_get s 0)
      else Extmem.Block_writer.write_string w s
  | To_fn f -> f s

let put_sub t s off len =
  if len > 0 then
    match t.out with
    | To_buffer b -> Buffer.add_substring b s off len
    | To_block w -> Extmem.Block_writer.write_substring w s off len
    | To_fn f -> f (if off = 0 && len = String.length s then s else String.sub s off len)

(* The slice [s.[i..stop)], escaped in place: the runs between bytes
   that need a reference are written as they stand. *)
let rec put_escaped t ~attr s i stop =
  if i < stop then begin
    let j = Escape.scan ~attr s i stop in
    put_sub t s i (j - i);
    if j < stop then begin
      put t (Escape.entity (String.unsafe_get s j));
      put_escaped t ~attr s (j + 1) stop
    end
  end

let create ?(decl = false) ?(indent = false) out =
  let t = { out; indent; depth = 0; open_tag = false; had_children = false } in
  if decl then put t "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  t

let to_fn ?decl ?indent sink = create ?decl ?indent (To_fn sink)

let to_buffer ?decl ?indent buf = create ?decl ?indent (To_buffer buf)

let to_block_writer ?decl ?indent w = create ?decl ?indent (To_block w)

let close_open_tag t = if t.open_tag then begin put t ">"; t.open_tag <- false end

let newline_indent t =
  if t.indent then begin
    put t "\n";
    put t (String.make (2 * t.depth) ' ')
  end

let start_element t name =
  close_open_tag t;
  if t.depth = 0 || t.indent then newline_indent t;
  put t "<";
  put t name;
  t.open_tag <- true;
  t.had_children <- false;
  t.depth <- t.depth + 1

let attribute t name v off len =
  if not t.open_tag then invalid_arg "Writer: attribute outside a start tag";
  put t " ";
  put t name;
  put t "=\"";
  put_escaped t ~attr:true v off (off + len);
  put t "\""

let end_element t name =
  if t.depth = 0 then invalid_arg "Writer: end tag with no open element";
  t.depth <- t.depth - 1;
  if t.open_tag then begin
    put t "/>";
    t.open_tag <- false
  end
  else begin
    if t.indent && t.had_children then newline_indent t;
    put t "</";
    put t name;
    put t ">"
  end;
  t.had_children <- true

let rec all_blank s i stop =
  i >= stop
  || (match String.unsafe_get s i with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
     && all_blank s (i + 1) stop

let text t s off len =
  if t.depth = 0 then begin
    if not (all_blank s off (off + len)) then invalid_arg "Writer: text outside the root element"
  end
  else begin
    close_open_tag t;
    put_escaped t ~attr:false s off (off + len)
  end

let event t e =
  match e with
  | Event.Start (name, attrs) ->
      start_element t name;
      List.iter (fun (k, v) -> attribute t k v 0 (String.length v)) attrs
  | Event.End name -> end_element t name
  | Event.Text s -> text t s 0 (String.length s)

let events t = List.iter (event t)

let close t = if t.depth <> 0 then invalid_arg "Writer: unclosed elements remain"

let events_to_string ?decl ?indent evs =
  let buf = Buffer.create 1024 in
  let t = to_buffer ?decl ?indent buf in
  events t evs;
  close t;
  Buffer.contents buf
