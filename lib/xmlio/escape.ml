exception Bad_entity of string

(* Whitespace is escaped as character references wherever a literal
   occurrence would not survive a re-parse: CR anywhere (end-of-line
   handling folds it to LF), and tab/LF inside attribute values
   (attribute-value normalization folds them to spaces).  This is what
   makes [parse (write doc)] the identity on every string. *)
let rec scan ~attr s i stop =
  if i >= stop then stop
  else
    match String.unsafe_get s i with
    | '&' | '<' | '>' | '\r' -> i
    | '"' | '\'' | '\t' | '\n' when attr -> i
    | _ -> scan ~attr s (i + 1) stop

let entity = function
  | '&' -> "&amp;"
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '\r' -> "&#13;"
  | '"' -> "&quot;"
  | '\'' -> "&apos;"
  | '\t' -> "&#9;"
  | '\n' -> "&#10;"
  | c -> invalid_arg (Printf.sprintf "Escape.entity: %C needs no escaping" c)

let escape ~attr s =
  let n = String.length s in
  let first = scan ~attr s 0 n in
  if first = n then s (* fast path: nothing to escape *)
  else begin
    let b = Buffer.create (n + 8) in
    let i = ref 0 and j = ref first in
    while !i < n do
      Buffer.add_substring b s !i (!j - !i);
      if !j < n then begin
        Buffer.add_string b (entity (String.unsafe_get s !j));
        i := !j + 1;
        j := scan ~attr s !i n
      end
      else i := n
    done;
    Buffer.contents b
  end

let escape_text s = escape ~attr:false s

let escape_attr s = escape ~attr:true s

(* Encode a Unicode code point as UTF-8. *)
let utf8_of_code_point cp =
  let b = Buffer.create 4 in
  if cp < 0 || cp > 0x10FFFF then raise (Bad_entity (Printf.sprintf "#%d" cp));
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end;
  Buffer.contents b

let decode_entity name =
  match name with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "quot" -> "\""
  | "apos" -> "'"
  | "" -> raise (Bad_entity "")
  | _ when name.[0] = '#' -> (
      let digits = String.sub name 1 (String.length name - 1) in
      let cp =
        try
          if String.length digits > 1 && (digits.[0] = 'x' || digits.[0] = 'X') then
            int_of_string ("0x" ^ String.sub digits 1 (String.length digits - 1))
          else int_of_string digits
        with Failure _ -> raise (Bad_entity name)
      in
      try utf8_of_code_point cp with Invalid_argument _ -> raise (Bad_entity name))
  | _ -> raise (Bad_entity name)
