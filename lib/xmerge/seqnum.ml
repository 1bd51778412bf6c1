module Tree = Xmlio.Tree

let seq_attr = "__seq"

let annotate ?(offset = 0) doc =
  let rec go seq (node : Tree.t) =
    match node with
    | Tree.Text _ -> node
    | Tree.Element e ->
        if List.mem_assoc seq_attr e.Tree.attrs then
          invalid_arg (Printf.sprintf "Seqnum.annotate: document already uses %s" seq_attr);
        let counter = ref (offset - 1) in
        let children =
          List.map
            (fun c ->
              incr counter;
              go !counter c)
            e.Tree.children
        in
        Tree.Element
          { e with Tree.attrs = (seq_attr, string_of_int seq) :: e.Tree.attrs; children }
  in
  Tree.to_string (go offset (Tree.of_string doc))

let restore ?config doc =
  let ordering = Nexsort.Ordering.by_attr seq_attr in
  let sorted, _ = Engine.sort_string ?config ~ordering doc in
  let rec strip_tree (node : Tree.t) =
    match node with
    | Tree.Text _ -> node
    | Tree.Element e ->
        Tree.Element
          {
            e with
            Tree.attrs = List.remove_assoc seq_attr e.Tree.attrs;
            children = List.map strip_tree e.Tree.children;
          }
  in
  Tree.to_string (strip_tree (Tree.of_string sorted))

let strip doc =
  let rec go (node : Tree.t) =
    match node with
    | Tree.Text _ -> node
    | Tree.Element e ->
        Tree.Element
          {
            e with
            Tree.attrs = List.remove_assoc seq_attr e.Tree.attrs;
            children = List.map go e.Tree.children;
          }
  in
  Tree.to_string (go (Tree.of_string doc))
