type t =
  | Element of element
  | Text of string

and element = {
  name : string;
  attrs : Event.attr list;
  children : t list;
}

exception Malformed of string

let element ?(attrs = []) name children = Element { name; attrs; children }

let text s = Text s

let of_next next =
  (* Parse one node from the event source; the first event must be Start. *)
  let rec node = function
    | Event.Start (name, attrs) ->
        let children = children_of [] in
        Element { name; attrs; children }
    | Event.Text _ | Event.End _ -> raise (Malformed "expected a start tag")
  and children_of acc =
    match next () with
    | None -> raise (Malformed "unexpected end of events")
    | Some (Event.End _) -> List.rev acc
    | Some (Event.Text s) -> children_of (Text s :: acc)
    | Some (Event.Start _ as e) -> children_of (node e :: acc)
  in
  match next () with
  | None -> raise (Malformed "empty event stream")
  | Some e -> node e

let of_events evs =
  let rest = ref evs in
  let next () =
    match !rest with
    | [] -> None
    | e :: tl ->
        rest := tl;
        Some e
  in
  let t = of_next next in
  if !rest <> [] then raise (Malformed "trailing events after the root element");
  t

let of_string ?keep_whitespace s =
  let p = Parser.of_string ?keep_whitespace s in
  of_next (fun () -> Parser.next p)

let to_events t =
  let rec go acc = function
    | Text s -> Event.Text s :: acc
    | Element { name; attrs; children } ->
        let acc = Event.Start (name, attrs) :: acc in
        let acc = List.fold_left go acc children in
        Event.End name :: acc
  in
  List.rev (go [] t)

let to_string ?decl ?indent t = Writer.events_to_string ?decl ?indent (to_events t)

let rec equal a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Element x, Element y ->
      String.equal x.name y.name && x.attrs = y.attrs
      && List.length x.children = List.length y.children
      && List.for_all2 equal x.children y.children
  | Text _, Element _ | Element _, Text _ -> false

let rec size = function
  | Text _ -> 1
  | Element { children; _ } -> List.fold_left (fun acc c -> acc + size c) 1 children

let rec element_count = function
  | Text _ -> 0
  | Element { children; _ } -> List.fold_left (fun acc c -> acc + element_count c) 1 children

let rec height = function
  | Text _ -> 0
  | Element { children; _ } -> 1 + List.fold_left (fun acc c -> max acc (height c)) 0 children

let rec max_fanout = function
  | Text _ -> 0
  | Element { children; _ } ->
      List.fold_left (fun acc c -> max acc (max_fanout c)) (List.length children) children

let rec map_children f = function
  | Text _ as t -> t
  | Element e ->
      let children = List.map (map_children f) e.children in
      let e = { e with children } in
      Element { e with children = f e }

let pp ppf t = Format.pp_print_string ppf (to_string ~indent:true t)
