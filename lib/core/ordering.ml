type criterion =
  | By_tag
  | By_attr of string
  | By_text
  | By_path of string list
  | Document_order
  | Composite of criterion list
  | Desc of criterion

type t = {
  rules : (string * criterion) list;
  default : criterion;
}

let make ?(rules = []) default = { rules; default }

let by_attr name = make (By_attr name)

let by_tag = make By_tag

let document_order = make Document_order

let criterion_for t tag =
  match List.assoc_opt tag t.rules with
  | Some c -> c
  | None -> t.default

let rec scan_evaluable = function
  | By_tag | By_attr _ | Document_order -> true
  | By_text | By_path _ -> false
  | Composite l -> List.for_all scan_evaluable l
  | Desc c -> scan_evaluable c

let all_scan_evaluable t =
  scan_evaluable t.default && List.for_all (fun (_, c) -> scan_evaluable c) t.rules

(* key of a start tag, for scan-evaluable criteria only; attribute
   values come through a lookup function so callers holding packed
   events need not build an assoc list *)
let rec key_of_start_criterion criterion name lookup =
  match criterion with
  | Document_order -> Some Key.Null
  | By_tag -> Some (Key.of_string name)
  | By_attr a ->
      Some
        (match lookup a with
        | Some v -> Key.of_string v
        | None -> Key.Null)
  | By_text | By_path _ -> None
  | Desc c -> Option.map (fun k -> Key.Rev k) (key_of_start_criterion c name lookup)
  | Composite l ->
      let parts = List.map (fun c -> key_of_start_criterion c name lookup) l in
      if List.for_all Option.is_some parts then Some (Key.Tuple (List.map Option.get parts))
      else None

let key_of_start t name attrs =
  key_of_start_criterion (criterion_for t name) name (fun a -> List.assoc_opt a attrs)

(* ---- in-memory evaluation (oracle) ---- *)

let direct_text (e : Xmlio.Tree.element) =
  let b = Buffer.create 16 in
  List.iter
    (function
      | Xmlio.Tree.Text s -> Buffer.add_string b s
      | Xmlio.Tree.Element _ -> ())
    e.Xmlio.Tree.children;
  Buffer.contents b

let rec all_text (e : Xmlio.Tree.element) =
  let b = Buffer.create 16 in
  List.iter
    (function
      | Xmlio.Tree.Text s -> Buffer.add_string b s
      | Xmlio.Tree.Element c -> Buffer.add_string b (all_text c))
    e.Xmlio.Tree.children;
  Buffer.contents b

(* the first element in document order reached by the path *)
let rec find_path (e : Xmlio.Tree.element) = function
  | [] -> Some e
  | seg :: rest ->
      List.find_map
        (function
          | Xmlio.Tree.Element c when c.Xmlio.Tree.name = seg -> find_path c rest
          | Xmlio.Tree.Element _ | Xmlio.Tree.Text _ -> None)
        e.Xmlio.Tree.children

let rec key_of_tree_criterion criterion (e : Xmlio.Tree.element) =
  match criterion with
  | Document_order -> Key.Null
  | By_tag -> Key.of_string e.Xmlio.Tree.name
  | By_attr a -> (
      match List.assoc_opt a e.Xmlio.Tree.attrs with
      | Some v -> Key.of_string v
      | None -> Key.Null)
  | By_text -> Key.of_string (direct_text e)
  | By_path path -> (
      match find_path e path with
      | Some target -> Key.of_string (all_text target)
      | None -> Key.Null)
  | Desc c -> Key.Rev (key_of_tree_criterion c e)
  | Composite l -> Key.Tuple (List.map (fun c -> key_of_tree_criterion c e) l)

let key_of_tree t (e : Xmlio.Tree.element) = key_of_tree_criterion (criterion_for t e.Xmlio.Tree.name) e

(* ---- streaming evaluation ---- *)

module Evaluator = struct
  (* the state of one subtree-derived leaf criterion of one open element;
     a path slot's relative depth is the evaluator's depth minus its
     frame's *)
  type slot =
    | Done of Key.t
    | Text_acc of Buffer.t
    | Path_acc of {
        path : string array;
        mutable progress : int;
        mutable capturing : bool;
        mutable result : Buffer.t option;
      }

  (* an open element whose key waits for its subtree *)
  type frame = {
    shape : criterion;
    slots : slot array; (* leaf slots, in the pre-order of [shape] *)
    fdepth : int; (* the element's absolute depth, root = 1 *)
  }

  (* Only elements with a subtree criterion get a frame, so with a
     scan-evaluable ordering [live] stays empty and every event is O(1). *)
  type eval = {
    spec : t;
    mutable depth : int; (* open elements *)
    mutable live : frame list; (* innermost first *)
  }

  let create spec = { spec; depth = 0; live = [] }

  (* allocate the leaf slots of a criterion, in pre-order *)
  let slots_of criterion name lookup =
    let acc = ref [] in
    let rec go = function
      | (By_tag | By_attr _ | Document_order) as c ->
          acc := Done (Option.get (key_of_start_criterion c name lookup)) :: !acc
      | By_text -> acc := Text_acc (Buffer.create 16) :: !acc
      | By_path path ->
          acc :=
            Path_acc { path = Array.of_list path; progress = 0; capturing = false; result = None }
            :: !acc
      | Desc c -> go c
      | Composite l -> List.iter go l
    in
    go criterion;
    Array.of_list (List.rev !acc)

  (* assemble the final key from the filled slots *)
  let assemble frame =
    let idx = ref 0 in
    let next_slot () =
      let s = frame.slots.(!idx) in
      incr idx;
      s
    in
    let rec go = function
      | By_tag | By_attr _ | Document_order -> (
          match next_slot () with
          | Done k -> k
          | Text_acc _ | Path_acc _ -> assert false)
      | By_text -> (
          match next_slot () with
          | Text_acc b -> Key.of_string (Buffer.contents b)
          | Done k -> k
          | Path_acc _ -> assert false)
      | By_path _ -> (
          match next_slot () with
          | Path_acc p -> (
              match p.result with
              | Some b -> Key.of_string (Buffer.contents b)
              | None -> Key.Null)
          | Done k -> k
          | Text_acc _ -> assert false)
      | Desc c -> Key.Rev (go c)
      | Composite l -> Key.Tuple (List.map go l)
    in
    go frame.shape

  (* path-matching state updates for every live slot, after [e.depth]
     moved to the new element *)
  let slots_on_start e name =
    List.iter
      (fun frame ->
        let rel_depth = e.depth - frame.fdepth in
        Array.iter
          (function
            | Done _ | Text_acc _ -> ()
            | Path_acc w ->
                if
                  w.result = None && (not w.capturing)
                  && rel_depth = w.progress + 1
                  && w.progress < Array.length w.path
                  && w.path.(w.progress) = name
                then begin
                  w.progress <- w.progress + 1;
                  if w.progress = Array.length w.path then begin
                    w.capturing <- true;
                    w.result <- Some (Buffer.create 16)
                  end
                end)
          frame.slots)
      e.live

  (* the element at [e.depth] is closing *)
  let slots_on_end e =
    List.iter
      (fun frame ->
        let rel_depth = e.depth - frame.fdepth in
        Array.iter
          (function
            | Done _ | Text_acc _ -> ()
            | Path_acc w ->
                if w.capturing && rel_depth = Array.length w.path then w.capturing <- false;
                if rel_depth <= w.progress then w.progress <- max 0 (rel_depth - 1))
          frame.slots)
      e.live

  let on_start_lookup e name lookup =
    e.depth <- e.depth + 1;
    if e.live <> [] then slots_on_start e name;
    let shape = criterion_for e.spec name in
    match key_of_start_criterion shape name lookup with
    | Some _ as key -> key
    | None ->
        e.live <- { shape; slots = slots_of shape name lookup; fdepth = e.depth } :: e.live;
        None

  let on_start e name attrs = on_start_lookup e name (fun a -> List.assoc_opt a attrs)

  let on_text e s =
    match e.live with
    | [] -> ()
    | innermost :: _ ->
        (* direct text feeds the innermost element's text accumulators,
           when that element has a frame *)
        if innermost.fdepth = e.depth then
          Array.iter
            (function
              | Text_acc b -> Buffer.add_string b s
              | Done _ | Path_acc _ -> ())
            innermost.slots;
        (* capturing path slots of any ancestor receive all text below target *)
        List.iter
          (fun frame ->
            Array.iter
              (function
                | Path_acc w when w.capturing -> (
                    match w.result with
                    | Some b -> Buffer.add_string b s
                    | None -> ())
                | Path_acc _ | Done _ | Text_acc _ -> ())
              frame.slots)
          e.live

  let on_end e =
    if e.depth = 0 then invalid_arg "Ordering.Evaluator.on_end: no open element";
    (* a closing element without a frame had its key delivered at its
       start tag *)
    let key =
      match e.live with
      | frame :: rest when frame.fdepth = e.depth ->
          e.live <- rest;
          Some (assemble frame)
      | _ -> None
    in
    if e.live <> [] then slots_on_end e;
    e.depth <- e.depth - 1;
    key
end

let rec pp_criterion ppf = function
  | By_tag -> Format.pp_print_string ppf "tag"
  | By_attr a -> Format.fprintf ppf "@%s" a
  | By_text -> Format.pp_print_string ppf "text"
  | By_path p -> Format.pp_print_string ppf (String.concat "/" p)
  | Document_order -> Format.pp_print_string ppf "doc"
  | Desc c -> Format.fprintf ppf "-%a" pp_criterion c
  | Composite l ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";") pp_criterion)
        l

let rec parse_criterion s =
  if s = "" then invalid_arg "Ordering.of_spec_string: empty criterion";
  if s.[0] = '-' then Desc (parse_criterion (String.sub s 1 (String.length s - 1)))
  else if s.[0] = '(' then begin
    if s.[String.length s - 1] <> ')' then
      invalid_arg "Ordering.of_spec_string: unbalanced parentheses";
    let inner = String.sub s 1 (String.length s - 2) in
    let parts = String.split_on_char ';' inner in
    Composite (List.map parse_criterion parts)
  end
  else if s = "tag" then By_tag
  else if s = "doc" then Document_order
  else if s = "text" then By_text
  else if s.[0] = '@' then By_attr (String.sub s 1 (String.length s - 1))
  else By_path (String.split_on_char '/' s)

let of_spec_string spec =
  let parts = String.split_on_char ',' spec in
  let rules, defaults =
    List.partition_map
      (fun part ->
        match String.index_opt part '=' with
        | Some i ->
            let tag = String.sub part 0 i in
            let c = parse_criterion (String.sub part (i + 1) (String.length part - i - 1)) in
            if tag = "" then invalid_arg "Ordering.of_spec_string: empty tag";
            Left (tag, c)
        | None -> Right (parse_criterion part))
      (List.filter (fun p -> p <> "") parts)
  in
  let default =
    match defaults with
    | [] -> By_tag
    | [ d ] -> d
    | _ -> invalid_arg "Ordering.of_spec_string: multiple default criteria"
  in
  make ~rules default
