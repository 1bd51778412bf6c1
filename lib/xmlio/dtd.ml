type model =
  | Elem_name of string
  | Seq of model list
  | Choice of model list
  | Opt of model
  | Star of model
  | Plus of model

type content =
  | Empty
  | Any
  | Mixed of string list
  | Children of model

type att_type =
  | Cdata
  | Id
  | Idref
  | Nmtoken
  | Enum of string list

type att_default =
  | Required
  | Implied
  | Fixed of string
  | Default of string

type att_def = {
  att_name : string;
  att_type : att_type;
  att_default : att_default;
}

type t = {
  elements : (string * content) list; (* declaration order *)
  attlists : (string * att_def list) list;
}

exception Syntax_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Syntax_error m)) fmt

(* ---- tokenizing the subset text ---- *)

type cursor = {
  text : string;
  mutable pos : int;
}

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let is_ws = function
  | ' ' | '\t' | '\n' | '\r' -> true
  | _ -> false

let skip_ws c =
  while
    match peek c with
    | Some ch when is_ws ch -> true
    | _ -> false
  do
    advance c
  done

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' | '-' | '.' | '#' -> true
  | _ -> false

let read_name c =
  skip_ws c;
  let start = c.pos in
  while
    match peek c with
    | Some ch when is_name_char ch -> true
    | _ -> false
  do
    advance c
  done;
  if c.pos = start then fail "name expected at offset %d" start;
  String.sub c.text start (c.pos - start)

let expect c ch =
  skip_ws c;
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected %C, found %C at offset %d" ch x c.pos
  | None -> fail "expected %C, found end of DTD" ch

let looking_at c s =
  c.pos + String.length s <= String.length c.text && String.sub c.text c.pos (String.length s) = s

(* Content model grammar:
   cp    is a name or a group, optionally followed by ?, + or a star;
   group is '(' cp (("," cp)... or ("|" cp)...) ')' *)

let rec parse_cp c =
  skip_ws c;
  let base =
    match peek c with
    | Some '(' ->
        advance c;
        parse_group c
    | Some _ -> Elem_name (read_name c)
    | None -> fail "content particle expected"
  in
  match peek c with
  | Some '?' ->
      advance c;
      Opt base
  | Some '*' ->
      advance c;
      Star base
  | Some '+' ->
      advance c;
      Plus base
  | _ -> base

and parse_group c =
  let first = parse_cp c in
  skip_ws c;
  match peek c with
  | Some ')' ->
      advance c;
      first
  | Some (',' as sep) | Some ('|' as sep) ->
      let rec rest acc =
        advance c;
        let cp = parse_cp c in
        skip_ws c;
        match peek c with
        | Some ch when ch = sep -> rest (cp :: acc)
        | Some ')' ->
            advance c;
            List.rev (cp :: acc)
        | Some ch -> fail "mixed separators %C and %C in a group" sep ch
        | None -> fail "unterminated group"
      in
      let parts = rest [ first ] in
      if sep = ',' then Seq parts else Choice parts
  | Some ch -> fail "unexpected %C in content model" ch
  | None -> fail "unterminated group"

let parse_content c =
  skip_ws c;
  if looking_at c "EMPTY" then begin
    c.pos <- c.pos + 5;
    Empty
  end
  else if looking_at c "ANY" then begin
    c.pos <- c.pos + 3;
    Any
  end
  else begin
    expect c '(';
    skip_ws c;
    if looking_at c "#PCDATA" then begin
      c.pos <- c.pos + 7;
      let rec names acc =
        skip_ws c;
        match peek c with
        | Some '|' ->
            advance c;
            names (read_name c :: acc)
        | Some ')' ->
            advance c;
            (* optional trailing '*' *)
            (match peek c with
            | Some '*' -> advance c
            | _ -> ());
            List.rev acc
        | Some ch -> fail "unexpected %C in mixed content" ch
        | None -> fail "unterminated mixed content"
      in
      Mixed (names [])
    end
    else Children (parse_group c)
  end

let parse_att_type c =
  skip_ws c;
  if looking_at c "CDATA" then begin
    c.pos <- c.pos + 5;
    Cdata
  end
  else if looking_at c "IDREF" then begin
    c.pos <- c.pos + 5;
    Idref
  end
  else if looking_at c "ID" then begin
    c.pos <- c.pos + 2;
    Id
  end
  else if looking_at c "NMTOKEN" then begin
    c.pos <- c.pos + 7;
    Nmtoken
  end
  else if peek c = Some '(' then begin
    advance c;
    let rec names acc =
      let n = read_name c in
      skip_ws c;
      match peek c with
      | Some '|' ->
          advance c;
          names (n :: acc)
      | Some ')' ->
          advance c;
          List.rev (n :: acc)
      | _ -> fail "unterminated enumeration"
    in
    Enum (names [])
  end
  else fail "attribute type expected at offset %d" c.pos

let read_quoted c =
  skip_ws c;
  match peek c with
  | Some (('"' | '\'') as q) ->
      advance c;
      let start = c.pos in
      while peek c <> Some q do
        match peek c with
        | Some _ -> advance c
        | None -> fail "unterminated default value"
      done;
      let v = String.sub c.text start (c.pos - start) in
      advance c;
      v
  | _ -> fail "quoted value expected at offset %d" c.pos

let parse_att_default c =
  skip_ws c;
  if looking_at c "#REQUIRED" then begin
    c.pos <- c.pos + 9;
    Required
  end
  else if looking_at c "#IMPLIED" then begin
    c.pos <- c.pos + 8;
    Implied
  end
  else if looking_at c "#FIXED" then begin
    c.pos <- c.pos + 6;
    Fixed (read_quoted c)
  end
  else Default (read_quoted c)

let parse subset =
  let c = { text = subset; pos = 0 } in
  let elements = ref [] in
  let attlists = ref [] in
  let rec decls () =
    skip_ws c;
    match peek c with
    | None -> ()
    | Some '<' ->
        if looking_at c "<!--" then begin
          (* skip comment *)
          c.pos <- c.pos + 4;
          let rec close () =
            if looking_at c "-->" then c.pos <- c.pos + 3
            else if c.pos >= String.length c.text then fail "unterminated comment"
            else begin
              advance c;
              close ()
            end
          in
          close ();
          decls ()
        end
        else if looking_at c "<!ELEMENT" then begin
          c.pos <- c.pos + 9;
          let name = read_name c in
          let content = parse_content c in
          expect c '>';
          elements := (name, content) :: !elements;
          decls ()
        end
        else if looking_at c "<!ATTLIST" then begin
          c.pos <- c.pos + 9;
          let elem = read_name c in
          let rec defs acc =
            skip_ws c;
            match peek c with
            | Some '>' ->
                advance c;
                List.rev acc
            | Some _ ->
                let att_name = read_name c in
                let att_type = parse_att_type c in
                let att_default = parse_att_default c in
                defs ({ att_name; att_type; att_default } :: acc)
            | None -> fail "unterminated ATTLIST"
          in
          let defs = defs [] in
          attlists := (elem, defs) :: !attlists;
          decls ()
        end
        else fail "unknown declaration at offset %d" c.pos
    | Some ch -> fail "unexpected %C between declarations" ch
  in
  decls ();
  { elements = List.rev !elements; attlists = List.rev !attlists }

let element_names t = List.map fst t.elements

let content_model t name = List.assoc_opt name t.elements

let attributes t elem =
  List.concat_map (fun (e, defs) -> if e = elem then defs else []) t.attlists

let names t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      out := n :: !out
    end
  in
  List.iter
    (fun (n, content) ->
      add n;
      match content with
      | Mixed ns -> List.iter add ns
      | Children m ->
          let rec walk = function
            | Elem_name n -> add n
            | Seq l | Choice l -> List.iter walk l
            | Opt m | Star m | Plus m -> walk m
          in
          walk m
      | Empty | Any -> ())
    t.elements;
  List.iter
    (fun (e, defs) ->
      add e;
      List.iter (fun d -> add d.att_name) defs)
    t.attlists;
  List.rev !out

let preload t dict = List.iter (fun n -> ignore (Dict.intern dict n)) (names t)

(* ---- validation by Brzozowski derivatives ---- *)

let rec nullable = function
  | Elem_name _ -> false
  | Seq l -> List.for_all nullable l
  | Choice l -> List.exists nullable l
  | Opt _ | Star _ -> true
  | Plus m -> nullable m

(* the "cannot match anything" model, used as the failure sink *)
let fail_model = Choice []

let rec simplify = function
  | Seq [] -> Opt fail_model (* epsilon: matches only the empty sequence *)
  | Seq [ m ] -> simplify m
  | Seq l when List.exists (fun m -> m = Choice []) l -> fail_model
  | Choice [ m ] -> simplify m
  | m -> m

let rec deriv m sym =
  match m with
  | Elem_name n -> if n = sym then Seq [] else fail_model
  | Choice l -> simplify (Choice (List.map (fun m -> deriv m sym) l))
  | Seq [] -> fail_model
  | Seq (first :: rest) ->
      let d_first = simplify (Seq (deriv first sym :: rest)) in
      if nullable first then simplify (Choice [ d_first; deriv (Seq rest) sym ]) else d_first
  | Opt m -> deriv m sym
  | Star m' -> simplify (Seq [ deriv m' sym; Star m' ])
  | Plus m' -> simplify (Seq [ deriv m' sym; Star m' ])

let matches model syms =
  let final = List.fold_left (fun m sym -> simplify (deriv m sym)) model syms in
  nullable final

type violation = {
  element : string;
  message : string;
}

let validate t tree =
  let violations = ref [] in
  let report element fmt =
    Printf.ksprintf (fun message -> violations := { element; message } :: !violations) fmt
  in
  let strict = t.elements <> [] in
  let rec check = function
    | Tree.Text _ -> ()
    | Tree.Element e ->
        let name = e.Tree.name in
        (* attributes *)
        let defs = attributes t name in
        List.iter
          (fun d ->
            let value = List.assoc_opt d.att_name e.Tree.attrs in
            (match (d.att_default, value) with
            | Required, None -> report name "missing required attribute %s" d.att_name
            | Fixed fixed, Some v when v <> fixed ->
                report name "attribute %s must be fixed to %S, found %S" d.att_name fixed v
            | _ -> ());
            match (d.att_type, value) with
            | Enum allowed, Some v when not (List.mem v allowed) ->
                report name "attribute %s value %S not in {%s}" d.att_name v
                  (String.concat ", " allowed)
            | _ -> ())
          defs;
        (* content *)
        let child_elems =
          List.filter_map
            (function Tree.Element c -> Some c.Tree.name | Tree.Text _ -> None)
            e.Tree.children
        in
        let has_text =
          List.exists
            (function
              | Tree.Text s -> not (String.for_all is_ws s)
              | Tree.Element _ -> false)
            e.Tree.children
        in
        (match content_model t name with
        | None -> if strict then report name "element %s is not declared" name
        | Some Empty ->
            if e.Tree.children <> [] then report name "element %s must be EMPTY" name
        | Some Any -> ()
        | Some (Mixed allowed) ->
            List.iter
              (fun cn ->
                if not (List.mem cn allowed) then
                  report name "element %s not allowed in mixed content of %s" cn name)
              child_elems
        | Some (Children model) ->
            if has_text then report name "text not allowed inside %s" name;
            if not (matches model child_elems) then
              report name "children (%s) do not match the content model of %s"
                (String.concat ", " child_elems) name);
        List.iter check e.Tree.children
  in
  check tree;
  List.rev !violations
