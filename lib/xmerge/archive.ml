module Key = Nexsort.Key
module Ordering = Nexsort.Ordering
module Tree = Xmlio.Tree

type report = {
  version : string;
  elements_added : int;
  elements_carried : int;
  text_variants : int;
}

let v_attr = "__v"

let text_elem = "__text"

let attrs_elem = "__attrs"

let is_wrapper (e : Tree.element) = e.Tree.name = text_elem || e.Tree.name = attrs_elem

let split_versions s = String.split_on_char ',' s |> List.filter (fun v -> v <> "")

let join_versions vs = String.concat "," vs

let versions_of (e : Tree.element) =
  match List.assoc_opt v_attr e.Tree.attrs with
  | Some s -> split_versions s
  | None -> []

let with_versions (e : Tree.element) vs =
  let attrs = List.remove_assoc v_attr e.Tree.attrs in
  { e with Tree.attrs = (v_attr, join_versions vs) :: attrs }

let check_no_reserved tree =
  let rec go = function
    | Tree.Text _ -> ()
    | Tree.Element e ->
        if is_wrapper e then
          invalid_arg (Printf.sprintf "Archive: %s is a reserved element name" e.Tree.name);
        if List.mem_assoc v_attr e.Tree.attrs then
          invalid_arg (Printf.sprintf "Archive: %s is a reserved attribute" v_attr);
        List.iter go e.Tree.children
  in
  go tree

(* direct text of an element, concatenated (the unit of text versioning) *)
let direct_text children =
  String.concat ""
    (List.filter_map (function Tree.Text t -> Some t | Tree.Element _ -> None) children)

let element_children children =
  List.filter_map (function Tree.Element e -> Some e | Tree.Text _ -> None) children

type counters = {
  mutable added : int;
  mutable carried : int;
}

(* Turn one (sorted) document element into archive form for [version]. *)
let rec archive_of_fresh counters version (e : Tree.element) : Tree.element =
  counters.added <- counters.added + 1;
  let text = direct_text e.Tree.children in
  let kids = element_children e.Tree.children in
  let children =
    (if text = "" then []
     else
       [ Tree.Element
           { Tree.name = text_elem; attrs = [ (v_attr, version) ]; children = [ Tree.Text text ] }
       ])
    @ List.map (fun c -> Tree.Element (archive_of_fresh counters version c)) kids
  in
  with_versions { e with Tree.children } [ version ]

(* Merge a new version of an element into its archived form.  Both child
   lists are sorted under the ordering, so this is a linear merge. *)
let rec merge_into counters ordering version (arch : Tree.element) (doc : Tree.element) :
    Tree.element =
  counters.carried <- counters.carried + 1;
  let arch_vs = versions_of arch in
  (* split the archive's children into wrappers and real elements *)
  let wrappers, arch_kids =
    List.partition is_wrapper (element_children arch.Tree.children)
  in
  let variants, attr_variants =
    List.partition (fun (c : Tree.element) -> c.Tree.name = text_elem) wrappers
  in
  (* attribute drift: when this version's attributes differ from the
     archived base, record them in an __attrs override for this version *)
  let base_attrs = List.remove_assoc v_attr arch.Tree.attrs in
  let attr_variants =
    if doc.Tree.attrs = base_attrs then attr_variants
    else begin
      let matching (w : Tree.element) =
        List.remove_assoc v_attr w.Tree.attrs = doc.Tree.attrs
      in
      if List.exists matching attr_variants then
        List.map
          (fun w -> if matching w then with_versions w (versions_of w @ [ version ]) else w)
          attr_variants
      else
        attr_variants
        @ [ with_versions { Tree.name = attrs_elem; attrs = doc.Tree.attrs; children = [] }
              [ version ] ]
    end
  in
  let doc_text = direct_text doc.Tree.children in
  let variants =
    if doc_text = "" then variants
    else begin
      let matching (v : Tree.element) = direct_text v.Tree.children = doc_text in
      if List.exists matching variants then
        List.map
          (fun v -> if matching v then with_versions v (versions_of v @ [ version ]) else v)
          variants
      else
        variants
        @ [ { Tree.name = text_elem; attrs = [ (v_attr, version) ];
              children = [ Tree.Text doc_text ] } ]
    end
  in
  let doc_kids = element_children doc.Tree.children in
  let mark (e : Tree.element) = (Ordering.key_of_tree ordering e, e.Tree.name) in
  let cmp (ka, na) (kb, nb) =
    let c = Key.compare ka kb in
    if c <> 0 then c else String.compare na nb
  in
  let rec walk arch_kids doc_kids =
    match (arch_kids, doc_kids) with
    | rest, [] -> rest
    | [], fresh -> List.map (archive_of_fresh counters version) fresh
    | a :: arest, d :: drest ->
        let c = cmp (mark a) (mark d) in
        if c < 0 then a :: walk arest doc_kids
        else if c > 0 then archive_of_fresh counters version d :: walk arch_kids drest
        else merge_into counters ordering version a d :: walk arest drest
  in
  let merged_kids = walk arch_kids doc_kids in
  let children =
    List.map (fun v -> Tree.Element v) variants
    @ List.map (fun v -> Tree.Element v) attr_variants
    @ List.map (fun e -> Tree.Element e) merged_kids
  in
  with_versions { arch with Tree.children } (arch_vs @ [ version ])

let count_variants tree =
  Tree.fold
    (fun acc n ->
      match n with
      | Tree.Element e when e.Tree.name = text_elem -> acc + 1
      | Tree.Element _ | Tree.Text _ -> acc)
    0 tree

let versions archive =
  let tree = Tree.of_string archive in
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let note v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      out := v :: !out
    end
  in
  let rec go = function
    | Tree.Text _ -> ()
    | Tree.Element e ->
        List.iter note (versions_of e);
        List.iter go e.Tree.children
  in
  go tree;
  List.rev !out

let sort_doc ?config ~ordering doc =
  let sorted, _ = Engine.sort_string ?config ~ordering doc in
  sorted

let init ?config ~ordering ~version doc =
  let sorted = Tree.of_string (sort_doc ?config ~ordering doc) in
  check_no_reserved sorted;
  let counters = { added = 0; carried = 0 } in
  let arch =
    match sorted with
    | Tree.Element e -> Tree.Element (archive_of_fresh counters version e)
    | Tree.Text _ -> invalid_arg "Archive: document has no root element"
  in
  ( Tree.to_string arch,
    { version; elements_added = counters.added; elements_carried = 0;
      text_variants = count_variants arch } )

let add ?config ~ordering ~version ~archive doc =
  if List.mem version (versions archive) then
    invalid_arg (Printf.sprintf "Archive: version %S already recorded" version);
  let sorted = Tree.of_string (sort_doc ?config ~ordering doc) in
  check_no_reserved sorted;
  let arch_tree = Tree.of_string archive in
  let counters = { added = 0; carried = 0 } in
  let merged =
    match (arch_tree, sorted) with
    | Tree.Element a, Tree.Element d ->
        if a.Tree.name <> d.Tree.name then invalid_arg "Archive: root element mismatch";
        Tree.Element (merge_into counters ordering version a d)
    | _ -> invalid_arg "Archive: malformed archive or document"
  in
  ( Tree.to_string merged,
    { version; elements_added = counters.added; elements_carried = counters.carried;
      text_variants = count_variants merged } )

let extract ~version archive =
  let tree = Tree.of_string archive in
  if not (List.mem version (versions archive)) then None
  else begin
    let rec go (e : Tree.element) : Tree.element option =
      if not (List.mem version (versions_of e)) then None
      else begin
        let wrappers, kids = List.partition is_wrapper (element_children e.Tree.children) in
        let variants, attr_variants =
          List.partition (fun (c : Tree.element) -> c.Tree.name = text_elem) wrappers
        in
        let text =
          List.find_map
            (fun v -> if List.mem version (versions_of v) then Some (direct_text v.Tree.children) else None)
            variants
        in
        let override =
          List.find_map
            (fun (w : Tree.element) ->
              if List.mem version (versions_of w) then
                Some (List.remove_assoc v_attr w.Tree.attrs)
              else None)
            attr_variants
        in
        let children =
          (match text with
          | Some t when t <> "" -> [ Tree.Text t ]
          | Some _ | None -> [])
          @ List.filter_map (fun k -> Option.map (fun e -> Tree.Element e) (go k)) kids
        in
        let attrs =
          match override with
          | Some attrs -> attrs
          | None -> List.remove_assoc v_attr e.Tree.attrs
        in
        Some { e with Tree.attrs; children }
      end
    in
    match tree with
    | Tree.Element e -> Option.map (fun e -> Tree.to_string (Tree.Element e)) (go e)
    | Tree.Text _ -> None
  end
