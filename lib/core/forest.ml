(* The in-memory side of a subtree sort: rebuild the sibling forest from
   a flat list of entry views, sort siblings by key (position as
   tiebreak), and stream the result back out in sorted pre-order.

   Nodes hold views, not decoded entries: names, attributes and text are
   never materialized, and emission re-uses the original encoded payloads
   verbatim (only synthesized End entries are encoded here, and they
   carry no names).  Everything is pure given its arguments — no session,
   no devices, no shared state — so layer benchmarks can replay it on
   bare entry views.  The session-flavoured wrappers live in
   [Subtree_sort]. *)

type node = {
  view : Entry.View.t;
  mutable key : Key.t;
  mutable children : node list; (* reversed while building *)
}

(* ---- forest building ---- *)

let node_of_view v =
  let key = Entry.View.sibling_key v in
  { view = v; key; children = [] }

let build_forest views =
  let roots = ref [] in
  let open_stack = ref [] in (* innermost first *)
  let attach n =
    match !open_stack with
    | [] -> roots := n :: !roots
    | parent :: _ -> parent.children <- n :: parent.children
  in
  let close () =
    match !open_stack with
    | [] -> ()
    | top :: rest ->
        top.children <- List.rev top.children;
        open_stack := rest
  in
  (* close open elements whose level shows they ended (packed mode, where
     End entries are absent) *)
  let close_to level =
    while
      match !open_stack with
      | top :: _ -> Entry.View.level top.view >= level
      | [] -> false
    do
      close ()
    done
  in
  List.iter
    (fun v ->
      match Entry.View.kind v with
      | Entry.View.Vend ->
          let level = Entry.View.level v in
          close_to (level + 1);
          (match (!open_stack, Entry.View.end_key v) with
          | top :: _, Some k when Entry.View.level top.view = level -> top.key <- k
          | _ -> ());
          close_to level
      | Entry.View.Vstart ->
          close_to (Entry.View.level v);
          let n = node_of_view v in
          attach n;
          open_stack := n :: !open_stack
      | Entry.View.Vtext | Entry.View.Vrun_ptr ->
          close_to (Entry.View.level v);
          attach (node_of_view v))
    views;
  while !open_stack <> [] do
    close ()
  done;
  List.rev !roots

(* ---- sorting ---- *)

let compare_siblings a b =
  let c = Key.compare a.key b.key in
  if c <> 0 then c else compare (Entry.View.pos a.view) (Entry.View.pos b.view)

let rec sort_forest ~depth_limit nodes =
  match nodes with
  | [] -> []
  | first :: _ ->
      let level = Entry.View.level first.view in
      let sort_here =
        match depth_limit with
        | None -> true
        | Some d -> level <= d + 1
      in
      if not sort_here then nodes
      else begin
        let nodes = List.sort compare_siblings nodes in
        List.iter (fun n -> n.children <- sort_forest ~depth_limit n.children) nodes;
        nodes
      end

(* ---- serialization ---- *)

(* Pre-order walk of a sorted forest as a pull stream of encoded entries
   (into a run writer, a fragment, or the fused output phase).  The walk
   keeps one frame per open element: the element itself, for its
   synthesized End entry, and the siblings still to visit after it.  The
   stored payloads pass through byte-identical; [enc] only encodes the
   synthesized End entries. *)
let forest_pull ?(enc = Extmem.Codec.Enc.create ~capacity:32 ()) ~packed forest =
  let todo = ref forest in (* unvisited siblings at the current level *)
  let frames = ref [] in (* (open element, its unvisited siblings), innermost first *)
  let rec pull () =
    match !todo with
    | n :: rest ->
        (match Entry.View.kind n.view with
        | Entry.View.Vstart ->
            frames := (n, rest) :: !frames;
            todo := n.children
        | Entry.View.Vtext | Entry.View.Vrun_ptr -> todo := rest
        | Entry.View.Vend -> assert false (* nodes are never built from End entries *));
        Some (Entry.View.payload n.view)
    | [] -> (
        match !frames with
        | [] -> None
        | (n, rest) :: up ->
            frames := up;
            todo := rest;
            if packed then pull ()
            else
              Some
                (Entry.encode_end_to enc ~level:(Entry.View.level n.view)
                   ~pos:(Entry.View.pos n.view) ~key:None))
  in
  pull

let emit_node ~packed enc emit n = Pipe.drain (forest_pull ~enc ~packed [ n ]) emit

(* ---- key-path record streams (external subtree sorts, §3.1) ----

   Like the forest half above, these are pure given their arguments —
   entry views in, encoded key-path records out — and [keypath_sort]
   touches only the budget and scratch device it is handed.  The
   session-flavoured wrappers stay in [Subtree_sort]. *)

(* The component an entry contributes to key paths: its resolved key and
   position, with the key suppressed below the depth limit so deeper
   levels keep document order. *)
let keypath_component ~depth_limit key v =
  let key =
    match depth_limit with
    | Some d when Entry.View.level v > d + 1 -> Key.Null
    | Some _ | None -> key
  in
  { Keypath.key; pos = Entry.View.pos v }

(* Pull-stream of encoded key-path records from an entry-view stream in
   document order.  Keys must be on Start entries (scan-evaluable).  The
   view's payload rides along verbatim as the record payload. *)
let forward_records ~enc ~depth_limit input =
  let stack = ref [] in (* (level, component), innermost first *)
  let pop_to level =
    let rec go () =
      match !stack with
      | (l, _) :: rest when l >= level ->
          stack := rest;
          go ()
      | _ -> ()
    in
    go ()
  in
  let path_of own = List.rev_map snd !stack @ [ own ] in
  let rec next () =
    match input () with
    | None -> None
    | Some v -> (
        match Entry.View.kind v with
        | Entry.View.Vend ->
            pop_to (Entry.View.level v);
            next ()
        | kind ->
            let level = Entry.View.level v in
            pop_to level;
            let own = keypath_component ~depth_limit (Entry.View.sibling_key v) v in
            let record =
              Keypath.encode_record ~enc (path_of own) ~payload:(Entry.View.payload v)
            in
            (match kind with
            | Entry.View.Vstart -> stack := (level, own) :: !stack
            | Entry.View.Vtext | Entry.View.Vrun_ptr | Entry.View.Vend -> ());
            Some record)
  in
  next

(* Same, for entries arriving in reverse document order (popped from the
   data stack).  End entries precede their subtrees here and carry the
   element keys. *)
let reverse_records ~enc ~depth_limit input =
  let stack = ref [] in (* components, innermost first *)
  let rec next () =
    match input () with
    | None -> None
    | Some v -> (
        match Entry.View.kind v with
        | Entry.View.Vend ->
            let k = Option.value (Entry.View.end_key v) ~default:Key.Null in
            stack := keypath_component ~depth_limit k v :: !stack;
            next ()
        | Entry.View.Vstart ->
            (* own component is the stack top when an End was seen (it
               carries the authoritative key); synthesize it otherwise
               (packed) *)
            let path =
              match !stack with
              | _ :: _ -> List.rev !stack
              | [] ->
                  [
                    keypath_component ~depth_limit
                      (Option.value (Entry.View.start_key v) ~default:Key.Null)
                      v;
                  ]
            in
            let record = Keypath.encode_record ~enc path ~payload:(Entry.View.payload v) in
            (match !stack with
            | _ :: rest -> stack := rest
            | [] -> ());
            Some record
        | Entry.View.Vtext | Entry.View.Vrun_ptr ->
            let own = keypath_component ~depth_limit (Entry.View.sibling_key v) v in
            let record =
              Keypath.encode_record ~enc
                (List.rev !stack @ [ own ])
                ~payload:(Entry.View.payload v)
            in
            Some record)
  in
  next

(* Reconstruction of a sorted key-path record stream: each record's
   payload passes through verbatim, preceded by the End entries of the
   open elements its level closes (the open-tag stack is O(height)
   internal state); the last End entries follow once the records run
   out.  Packed entries get no End entries: closing just pops. *)
let keypath_output ~encoding ~enc records =
  let packed = encoding = Config.Packed in
  let opens = ref [] in (* (level, pos) of open Start entries, innermost first *)
  let closing = ref max_int in (* close open elements at this level or deeper *)
  let held = ref None in (* the entry waiting behind those End entries *)
  let finished = ref false in
  let rec pull () =
    match !opens with
    | (l, pos) :: rest when l >= !closing ->
        opens := rest;
        if packed then pull () else Some (Entry.encode_end_to enc ~level:l ~pos ~key:None)
    | _ -> (
        match !held with
        | Some v ->
            held := None;
            closing := max_int;
            (match Entry.View.kind v with
            | Entry.View.Vstart -> opens := (Entry.View.level v, Entry.View.pos v) :: !opens
            | Entry.View.Vtext | Entry.View.Vrun_ptr | Entry.View.Vend -> ());
            Some (Entry.View.payload v)
        | None when !finished -> None
        | None ->
            (match records () with
            | Some record ->
                let v = Entry.View.of_payload encoding (Keypath.decode_payload record) in
                closing := Entry.View.level v;
                held := Some v
            | None ->
                finished := true;
                closing := 0);
            pull ())
  in
  pull

(* A key-path external sort of an entry-view stream (§3.1), opened: run
   formation and every merge pass but the last consume [input] here; the
   returned stream is the final merge with the reconstruction on top.
   Closing it releases what the sort still holds. *)
let keypath_sort ~arena ~budget ~temp ~encoding ~enc ~depth_limit ~scan input =
  let records =
    match scan with
    | `Forward -> forward_records ~enc ~depth_limit input
    | `Reverse -> reverse_records ~enc ~depth_limit input
  in
  let o =
    Extsort.External_sort.sort_open ~arena ~budget ~temp ~cmp:Keypath.compare_encoded
      ~input:records ()
  in
  { Pipe.pull = keypath_output ~encoding ~enc o.Extsort.External_sort.pull;
    close = o.Extsort.External_sort.close }
