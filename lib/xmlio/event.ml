type attr = string * string

type t =
  | Start of string * attr list
  | End of string
  | Text of string

(* Structural, not polymorphic [=]: events may mix interned (physically
   shared) and freshly-built strings, and future representations may hang
   non-comparable state off an event.  Compare the character data only. *)
let equal_attrs a b =
  let rec go a b =
    match (a, b) with
    | [], [] -> true
    | (ka, va) :: a', (kb, vb) :: b' -> String.equal ka kb && String.equal va vb && go a' b'
    | _, _ -> false
  in
  go a b

let equal a b =
  match (a, b) with
  | Start (na, aa), Start (nb, ab) -> String.equal na nb && equal_attrs aa ab
  | End na, End nb -> String.equal na nb
  | Text ta, Text tb -> String.equal ta tb
  | (Start _ | End _ | Text _), _ -> false

(** Packed events: a reusable scratch record the parser fills in place, so
    the scan loop sees one event at a time without allocating an [Event.t],
    a name string (names are interned, the canonical copy is shared) or an
    attribute assoc list per event.  Valid only until the producer's next
    event. *)

type pkind =
  | Pstart
  | Pend
  | Ptext

type packed = {
  mutable pkind : pkind;
  mutable pname : string;  (** element name ([Pstart]/[Pend]) *)
  mutable pname_id : int;  (** dict id of [pname], [-1] when not interned *)
  mutable pnattrs : int;
  mutable pattr_names : string array;
  mutable pattr_ids : int array;  (** dict ids of names, [-1] when not interned *)
  mutable pattr_values : string array;
  mutable ptext : string;  (** character data ([Ptext]) *)
}

let packed_create () =
  {
    pkind = Ptext;
    pname = "";
    pname_id = -1;
    pnattrs = 0;
    pattr_names = Array.make 8 "";
    pattr_ids = Array.make 8 (-1);
    pattr_values = Array.make 8 "";
    ptext = "";
  }

let packed_grow_attrs p =
  let cap = Array.length p.pattr_names * 2 in
  let grow a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  p.pattr_names <- grow p.pattr_names "";
  p.pattr_ids <- grow p.pattr_ids (-1);
  p.pattr_values <- grow p.pattr_values ""

let packed_attr p k =
  let rec go i =
    if i >= p.pnattrs then None
    else if String.equal p.pattr_names.(i) k then Some p.pattr_values.(i)
    else go (i + 1)
  in
  match p.pkind with Pstart -> go 0 | Pend | Ptext -> None

let of_packed p =
  match p.pkind with
  | Ptext -> Text p.ptext
  | Pend -> End p.pname
  | Pstart ->
      let rec attrs i =
        if i >= p.pnattrs then [] else (p.pattr_names.(i), p.pattr_values.(i)) :: attrs (i + 1)
      in
      Start (p.pname, attrs 0)

let pack_into p = function
  | Text s ->
      p.pkind <- Ptext;
      p.ptext <- s
  | End name ->
      p.pkind <- Pend;
      p.pname <- name;
      p.pname_id <- -1
  | Start (name, attrs) ->
      p.pkind <- Pstart;
      p.pname <- name;
      p.pname_id <- -1;
      p.pnattrs <- 0;
      List.iter
        (fun (k, v) ->
          if p.pnattrs >= Array.length p.pattr_names then packed_grow_attrs p;
          p.pattr_names.(p.pnattrs) <- k;
          p.pattr_ids.(p.pnattrs) <- -1;
          p.pattr_values.(p.pnattrs) <- v;
          p.pnattrs <- p.pnattrs + 1)
        attrs

let pp ppf = function
  | Start (name, attrs) ->
      Format.fprintf ppf "Start(%s%a)" name
        (fun ppf l -> List.iter (fun (k, v) -> Format.fprintf ppf " %s=%S" k v) l)
        attrs
  | End name -> Format.fprintf ppf "End(%s)" name
  | Text s -> Format.fprintf ppf "Text(%S)" s

let to_debug_string e = Format.asprintf "%a" pp e
