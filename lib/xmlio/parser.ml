exception Error of { line : int; col : int; msg : string }

(* Where the window's bytes come from once it is exhausted. *)
type source =
  | Whole                               (* the window is the whole input *)
  | Reader of Extmem.Block_reader.t     (* one block span per refill *)
  | Fn of (unit -> char option)         (* one byte per refill *)

type t = {
  src : source;
  (* The character layer: a window of raw input bytes scanned in place.
     [win.[wpos .. wlen)] is unread; [base] is the input offset of
     [win.[0]].  XML 1.0 §2.11 end-of-line handling happens on the fly: a
     CR reads as LF, and [after_cr] (the last byte consumed was a CR)
     folds a following LF into it, across refills too. *)
  win : Bytes.t;
  mutable wpos : int;
  mutable wlen : int;
  mutable base : int;
  mutable after_cr : bool;
  dict : Dict.t option;               (* when set, names are interned as read *)
  mutable line : int;
  mutable col : int;
  mutable stack : string list;        (* open elements, innermost first *)
  packed : Event.packed;              (* the one event scratch, filled in place *)
  (* Deferred work for the next [produce]: at most one of these is set.
     Tag parses are deferred (not buffered) when a text run precedes the
     tag, so the scratch can carry the text out first. *)
  mutable pending_start_tag : bool;   (* '<' + name-start consumed the peek *)
  mutable pending_end_tag : bool;     (* "</" consumed *)
  mutable pending_end : string option; (* queued End (empty-element tags) *)
  mutable peeked_event : Event.t option option;
  mutable root_seen : bool;
  mutable finished : bool;
  mutable doctype_subset : string option;
  keep_ws : bool;
  buf : Buffer.t;                     (* text accumulator *)
  buf2 : Buffer.t;                    (* entity references *)
  abuf : Buffer.t;                    (* attribute values *)
  (* The name just read is [nsrc.[noff .. noff + nlen)]: a view into the
     window when the name lies inside it, else a copy in [nbuf].  A view
     is valid only until the next refill. *)
  mutable nbuf : Bytes.t;
  mutable nsrc : Bytes.t;
  mutable noff : int;
  mutable nlen : int;
}

let fail p fmt =
  Printf.ksprintf (fun msg -> raise (Error { line = p.line; col = p.col; msg })) fmt

let create ?dict ?(keep_whitespace = false) src win wlen =
  {
    src;
    win;
    wpos = 0;
    wlen;
    base = 0;
    after_cr = false;
    dict;
    line = 1;
    col = 1;
    stack = [];
    packed = Event.packed_create ();
    pending_start_tag = false;
    pending_end_tag = false;
    pending_end = None;
    peeked_event = None;
    root_seen = false;
    finished = false;
    doctype_subset = None;
    keep_ws = keep_whitespace;
    buf = Buffer.create 256;
    buf2 = Buffer.create 64;
    abuf = Buffer.create 64;
    nbuf = Bytes.create 64;
    nsrc = Bytes.empty;
    noff = 0;
    nlen = 0;
  }

let of_string ?dict ?keep_whitespace s =
  create ?dict ?keep_whitespace Whole (Bytes.unsafe_of_string s) (String.length s)

let of_reader ?dict ?keep_whitespace r =
  create ?dict ?keep_whitespace (Reader r) (Bytes.create (Extmem.Block_reader.block_size r)) 0

let of_fn ?dict ?keep_whitespace source =
  create ?dict ?keep_whitespace (Fn source) (Bytes.create 1) 0

let line p = p.line

let col p = p.col

let depth p = List.length p.stack

let offset p = p.base + p.wpos

(* ---- character level ---- *)

(* Replace the exhausted window with the next bytes of input; false at
   the end of input. *)
let refill p =
  p.base <- p.base + p.wlen;
  p.wpos <- 0;
  p.wlen <-
    (match p.src with
    | Whole -> 0
    | Reader r -> Extmem.Block_reader.read_span r p.win 0 (Bytes.length p.win)
    | Fn f -> (
        match f () with
        | Some c ->
            Bytes.unsafe_set p.win 0 c;
            1
        | None -> 0));
  p.wlen > 0

(* The next character, without consuming it; ['\000'] at the end of
   input.  Right after a [peek], [at_end] tells the end from a NUL byte. *)
let rec peek p =
  if p.wpos >= p.wlen && not (refill p) then '\000'
  else
    match Bytes.unsafe_get p.win p.wpos with
    | '\n' when p.after_cr ->
        p.after_cr <- false;
        p.wpos <- p.wpos + 1;
        peek p
    | c -> if c = '\r' then '\n' else c

let at_end p = p.wpos >= p.wlen

(* Consume the character [c] that [peek] just returned (nothing at the end
   of input). *)
let junk p c =
  if p.wpos < p.wlen then begin
    p.after_cr <- Bytes.unsafe_get p.win p.wpos = '\r';
    p.wpos <- p.wpos + 1;
    if c = '\n' then begin
      p.line <- p.line + 1;
      p.col <- 1
    end
    else p.col <- p.col + 1
  end

(* Consume [n] bytes at [wpos], none of them a newline: the tail of an
   in-place run scan. *)
let skip_run p n =
  if n > 0 then begin
    p.wpos <- p.wpos + n;
    p.col <- p.col + n;
    p.after_cr <- false
  end

let expect_char p want =
  let c = peek p in
  if at_end p then fail p "expected %C, found end of input" want;
  junk p c;
  if c <> want then fail p "expected %C, found %C" want c

let expect_string p s = String.iter (expect_char p) s

let is_ws = function
  | ' ' | '\t' | '\n' | '\r' -> true
  | _ -> false

let skip_ws p =
  let rec go () =
    match peek p with
    | (' ' | '\t' | '\n') as c ->
        junk p c;
        go ()
    | _ -> ()
  in
  go ()

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80

let is_name_char c =
  is_name_start c
  ||
  match c with
  | '0' .. '9' | '-' | '.' -> true
  | _ -> false

(* The first index in [win.[i .. lim)] that is not a name character. *)
let rec name_end win i lim =
  if i < lim && is_name_char (Bytes.unsafe_get win i) then name_end win (i + 1) lim else i

let nbuf_add p src off len =
  if p.nlen + len > Bytes.length p.nbuf then begin
    let b = Bytes.create (max (2 * Bytes.length p.nbuf) (p.nlen + len)) in
    Bytes.blit p.nbuf 0 b 0 p.nlen;
    p.nbuf <- b
  end;
  Bytes.blit src off p.nbuf p.nlen len;
  p.nlen <- p.nlen + len

(* Read a name without materializing a string: a name inside the window
   is viewed in place, one that runs past the window end is gathered into
   [nbuf] across refills. *)
let read_name_raw p =
  let c = peek p in
  if not (is_name_start c) then begin
    if at_end p then fail p "name expected, found end of input";
    junk p c;
    fail p "invalid name start character %C" c
  end;
  let start = p.wpos in
  let stop = name_end p.win (start + 1) p.wlen in
  skip_run p (stop - start);
  if stop < p.wlen then begin
    p.nsrc <- p.win;
    p.noff <- start;
    p.nlen <- stop - start
  end
  else begin
    p.nlen <- 0;
    nbuf_add p p.win start (stop - start);
    while p.wpos >= p.wlen && refill p do
      let stop = name_end p.win 0 p.wlen in
      nbuf_add p p.win 0 stop;
      skip_run p stop
    done;
    p.nsrc <- p.nbuf;
    p.noff <- 0
  end

let name_string p = Bytes.sub_string p.nsrc p.noff p.nlen

(* The name just read, as [(canonical_string, dict_id)].  With a dict the
   canonical copy is shared and nothing is allocated for known names;
   without one a fresh string is built and the id is [-1]. *)
let resolve_name p =
  match p.dict with
  | Some d ->
      let id, s = Dict.intern_bytes d p.nsrc p.noff p.nlen in
      (s, id)
  | None -> (name_string p, -1)

let name_equals p s =
  String.length s = p.nlen
  &&
  let rec go i =
    i = p.nlen
    || Char.equal (String.unsafe_get s i) (Bytes.unsafe_get p.nsrc (p.noff + i)) && go (i + 1)
  in
  go 0

(* entity reference after the '&' has been consumed *)
let read_entity p =
  Buffer.clear p.buf2;
  let rec go n =
    if n > 12 then fail p "entity reference too long";
    let c = peek p in
    if at_end p then fail p "unterminated entity reference";
    junk p c;
    if c <> ';' then begin
      Buffer.add_char p.buf2 c;
      go (n + 1)
    end
  in
  go 0;
  let name = Buffer.contents p.buf2 in
  try Escape.decode_entity name with Escape.Bad_entity _ -> fail p "unknown entity &%s;" name

(* ---- markup constructs ---- *)

(* The next character, consumed; [eof] is the message for the end of
   input. *)
let read_char p eof =
  let c = peek p in
  if at_end p then fail p "%s" eof;
  junk p c;
  c

let read_comment p =
  (* after "<!--" *)
  let rec go dashes =
    match read_char p "unterminated comment" with
    | '-' -> go (dashes + 1)
    | '>' when dashes >= 2 -> ()
    | _ -> go 0
  in
  go 0

let read_pi p =
  (* after "<?" *)
  let rec go saw_q =
    match read_char p "unterminated processing instruction" with
    | '?' -> go true
    | '>' when saw_q -> ()
    | _ -> go false
  in
  go false

let read_doctype p =
  (* after "<!DOCTYPE"; the internal subset (between brackets) is captured
     so a DTD can be recovered with [doctype_subset] *)
  let subset = Buffer.create 64 in
  let rec go bracket_depth =
    match read_char p "unterminated DOCTYPE" with
    | '[' ->
        if bracket_depth > 0 then Buffer.add_char subset '[';
        go (bracket_depth + 1)
    | ']' ->
        if bracket_depth > 1 then Buffer.add_char subset ']';
        go (bracket_depth - 1)
    | '>' when bracket_depth = 0 -> ()
    | c ->
        if bracket_depth > 0 then Buffer.add_char subset c;
        go bracket_depth
  in
  go 0;
  if Buffer.length subset > 0 then p.doctype_subset <- Some (Buffer.contents subset)

let read_cdata p =
  (* after "<![CDATA[", contents appended to p.buf *)
  let rec go brackets =
    match read_char p "unterminated CDATA section" with
    | ']' -> go (brackets + 1)
    | '>' when brackets >= 2 ->
        (* the two brackets were the terminator; drop any extras beyond 2 *)
        for _ = 1 to brackets - 2 do
          Buffer.add_char p.buf ']'
        done
    | c ->
        for _ = 1 to brackets do
          Buffer.add_char p.buf ']'
        done;
        Buffer.add_char p.buf c;
        go 0
  in
  go 0

(* The first index in [win.[i .. lim)] that ends a run of attribute-value
   bytes copied verbatim. *)
let rec attr_run_end win i lim quote =
  if i >= lim then i
  else
    match Bytes.unsafe_get win i with
    | '<' | '&' | '\t' | '\n' | '\r' -> i
    | c when c = quote -> i
    | _ -> attr_run_end win (i + 1) lim quote

let read_attr_value p =
  let quote =
    match peek p with
    | ('"' | '\'') as q ->
        junk p q;
        q
    | _ when at_end p -> fail p "attribute value expected, found end of input"
    | c ->
        junk p c;
        fail p "attribute value must be quoted, found %C" c
  in
  let start = p.wpos in
  let stop = attr_run_end p.win start p.wlen quote in
  if stop < p.wlen && Bytes.unsafe_get p.win stop = quote then begin
    (* the common case: the whole value is one run inside the window *)
    skip_run p (stop - start + 1);
    Bytes.sub_string p.win start (stop - start)
  end
  else begin
    let b = p.abuf in
    Buffer.clear b;
    let rec go start stop =
      Buffer.add_subbytes b p.win start (stop - start);
      skip_run p (stop - start);
      match peek p with
      | _ when at_end p -> fail p "unterminated attribute value"
      | c when c = quote -> junk p c
      | '<' ->
          junk p '<';
          fail p "'<' not allowed in attribute value"
      | '&' ->
          junk p '&';
          Buffer.add_string b (read_entity p);
          more ()
      | ('\t' | '\n') as c ->
          (* attribute-value normalization (§3.3.3): literal whitespace
             becomes a space; only character references survive verbatim *)
          junk p c;
          Buffer.add_char b ' ';
          more ()
      | c ->
          junk p c;
          Buffer.add_char b c;
          more ()
    and more () =
      let start = p.wpos in
      go start (attr_run_end p.win start p.wlen quote)
    in
    go start stop;
    Buffer.contents b
  end

(* Append the run of character data at the read position to [p.buf]: up
   to the next '<', '&' or CR, or the window end.  Called right after
   [peek] returned a character that is none of '<', '&' or the end. *)
let read_text_run p =
  if Bytes.unsafe_get p.win p.wpos = '\r' then begin
    junk p '\n';
    Buffer.add_char p.buf '\n'
  end
  else begin
    let win = p.win and lim = p.wlen and start = p.wpos in
    let i = ref start and lines = ref 0 and line_start = ref start in
    while
      !i < lim
      &&
      match Bytes.unsafe_get win !i with
      | '<' | '&' | '\r' -> false
      | '\n' ->
          incr lines;
          line_start := !i + 1;
          true
      | _ -> true
    do
      incr i
    done;
    let stop = !i in
    Buffer.add_subbytes p.buf win start (stop - start);
    skip_run p (stop - start);
    if !lines > 0 then begin
      p.line <- p.line + !lines;
      p.col <- 1 + stop - !line_start
    end
  end

(* after '<', name start pending: fill [p.packed] with the start tag.
   Returns [true] when the tag was an empty-element tag. *)
let read_start_tag p =
  read_name_raw p;
  let name, id = resolve_name p in
  let pk = p.packed in
  pk.Event.pkind <- Event.Pstart;
  pk.Event.pname <- name;
  pk.Event.pname_id <- id;
  pk.Event.pnattrs <- 0;
  let rec attrs () =
    skip_ws p;
    match peek p with
    | '>' ->
        junk p '>';
        false
    | '/' ->
        junk p '/';
        expect_char p '>';
        true
    | c when is_name_start c ->
        read_name_raw p;
        let k, kid = resolve_name p in
        skip_ws p;
        expect_char p '=';
        skip_ws p;
        let v = read_attr_value p in
        let n = pk.Event.pnattrs in
        for i = 0 to n - 1 do
          if String.equal pk.Event.pattr_names.(i) k then fail p "duplicate attribute %s" k
        done;
        if n >= Array.length pk.Event.pattr_names then Event.packed_grow_attrs pk;
        pk.Event.pattr_names.(n) <- k;
        pk.Event.pattr_ids.(n) <- kid;
        pk.Event.pattr_values.(n) <- v;
        pk.Event.pnattrs <- n + 1;
        attrs ()
    | _ when at_end p -> fail p "unterminated start tag"
    | c -> fail p "unexpected %C in start tag" c
  in
  attrs ()

(* ---- event level ---- *)

let push_element p name = p.stack <- name :: p.stack

(* after "</": read the end tag, match it against the innermost open
   element and fill [p.packed].  The name is compared against (and shared
   with) the stack top, so no string is built on the happy path; the
   comparison is made before [skip_ws] can refill the window under the
   name. *)
let end_element p =
  read_name_raw p;
  let mismatch =
    match p.stack with
    | top :: _ when name_equals p top -> None
    | _ -> Some (name_string p)
  in
  skip_ws p;
  expect_char p '>';
  let name =
    match (p.stack, mismatch) with
    | top :: rest, None ->
        p.stack <- rest;
        if rest = [] then p.finished <- true;
        top
    | top :: _, Some name -> fail p "mismatched end tag </%s>, expected </%s>" name top
    | [], Some name -> fail p "end tag </%s> without open element" name
    | [], None -> assert false
  in
  let pk = p.packed in
  pk.Event.pkind <- Event.Pend;
  pk.Event.pname <- name;
  pk.Event.pname_id <- -1

let set_text p txt =
  let pk = p.packed in
  pk.Event.pkind <- Event.Ptext;
  pk.Event.ptext <- txt

let set_end p name =
  let pk = p.packed in
  pk.Event.pkind <- Event.Pend;
  pk.Event.pname <- name;
  pk.Event.pname_id <- -1

(* Whether the accumulated text is all whitespace, checked before a
   string is built for it. *)
let blank_text b =
  let rec go i = i = Buffer.length b || (is_ws (Buffer.nth b i) && go (i + 1)) in
  go 0

(* Produce the next event into [p.packed]; false at end of input. *)
let rec produce p =
  match p.pending_end with
  | Some name ->
      p.pending_end <- None;
      set_end p name;
      true
  | None ->
      if p.pending_start_tag then begin
        p.pending_start_tag <- false;
        start_element p
      end
      else if p.pending_end_tag then begin
        p.pending_end_tag <- false;
        end_element p;
        true
      end
      else if p.stack = [] then produce_misc p
      else produce_content p

and produce_misc p =
  (* outside the root element: only whitespace, comments, PIs, DOCTYPE *)
  skip_ws p;
  match peek p with
  | _ when at_end p ->
      if not p.root_seen then fail p "document has no root element";
      false
  | '<' -> (
      junk p '<';
      match peek p with
      | '!' -> (
          junk p '!';
          match peek p with
          | '-' ->
              expect_string p "--";
              read_comment p;
              produce_misc p
          | 'D' ->
              expect_string p "DOCTYPE";
              if p.root_seen then fail p "DOCTYPE after root element";
              read_doctype p;
              produce_misc p
          | _ when at_end p -> fail p "truncated markup"
          | c -> fail p "unexpected markup <!%C outside root" c)
      | '?' ->
          junk p '?';
          read_pi p;
          produce_misc p
      | '/' -> fail p "end tag outside any element"
      | c when is_name_start c ->
          if p.finished then fail p "multiple root elements"
          else begin
            p.root_seen <- true;
            start_element p
          end
      | _ when at_end p -> fail p "truncated markup at end of input"
      | c -> fail p "unexpected %C after '<'" c)
  | c -> fail p "character data %C outside root element" c

and start_element p =
  let empty = read_start_tag p in
  let name = p.packed.Event.pname in
  if empty then begin
    p.pending_end <- Some name;
    if p.stack = [] then p.finished <- true
  end
  else push_element p name;
  true

and produce_content p =
  Buffer.clear p.buf;
  let rec text () =
    match peek p with
    | '<' -> (
        junk p '<';
        match peek p with
        | '!' -> (
            junk p '!';
            match peek p with
            | '-' ->
                (* comments and PIs inside content do not break the
                   surrounding text run: skip them and keep accumulating *)
                expect_string p "--";
                read_comment p;
                text ()
            | '[' ->
                expect_string p "[CDATA[";
                read_cdata p;
                text ()
            | _ when at_end p -> fail p "truncated markup"
            | c -> fail p "unexpected markup <!%C" c)
        | '?' ->
            junk p '?';
            read_pi p;
            text ()
        | '/' ->
            junk p '/';
            `End_tag
        | c when is_name_start c -> `Start_tag
        | _ when at_end p -> fail p "truncated markup at end of input"
        | c -> fail p "unexpected %C after '<'" c)
    | '&' ->
        junk p '&';
        Buffer.add_string p.buf (read_entity p);
        text ()
    | _ when at_end p -> fail p "unclosed element <%s>" (List.hd p.stack)
    | _ ->
        read_text_run p;
        text ()
  in
  let kind = text () in
  let emit_text = Buffer.length p.buf > 0 && (p.keep_ws || not (blank_text p.buf)) in
  (* When a text run precedes the tag, emit the text now and defer the tag
     parse to the next [produce] — the scratch holds one event at a time. *)
  match kind with
  | `Start_tag ->
      if emit_text then begin
        p.pending_start_tag <- true;
        set_text p (Buffer.contents p.buf);
        true
      end
      else start_element p
  | `End_tag ->
      if emit_text then begin
        p.pending_end_tag <- true;
        set_text p (Buffer.contents p.buf);
        true
      end
      else begin
        end_element p;
        true
      end

let next_packed p =
  match p.peeked_event with
  | Some (Some e) ->
      p.peeked_event <- None;
      Event.pack_into p.packed e;
      Some p.packed
  | Some None ->
      p.peeked_event <- None;
      None
  | None -> if produce p then Some p.packed else None

let next p =
  match p.peeked_event with
  | Some e ->
      p.peeked_event <- None;
      e
  | None -> if produce p then Some (Event.of_packed p.packed) else None

let to_list p =
  let rec go acc =
    match next p with
    | Some e -> go (e :: acc)
    | None -> List.rev acc
  in
  go []

let doctype_subset p = p.doctype_subset

(* the character-level [peek] is shadowed here: the public one is the
   event lookahead *)
let peek p =
  match p.peeked_event with
  | Some e -> e
  | None ->
      let e = if produce p then Some (Event.of_packed p.packed) else None in
      p.peeked_event <- Some e;
      e
