(* Continuous ingestion: buffer subtree updates in an external priority
   queue under key-path order; a flush folds the drained batch into one
   combined update document and merges it into the sorted base in a
   single streaming pass. *)

module Key = Nexsort.Key
module Ordering = Nexsort.Ordering
module Keypath = Nexsort.Keypath
module Tree = Xmlio.Tree

let op_attr = Batch_update.op_attr

type marker = Delete | Replace | Upsert

let marker_of_attrs attrs =
  match List.assoc_opt op_attr attrs with
  | Some "delete" -> Delete
  | Some "replace" -> Replace
  | Some _ | None -> Upsert

let strip_op attrs = List.filter (fun (k, _) -> k <> op_attr) attrs

(* ------------------------------------------------------------------ *)
(* Operation records.

   One record per updated subtree: the key path of the target (keys
   only, positions zeroed — matching is by key, and positions are not
   comparable across documents), and a payload of
   [seq][spine][subtree].  The fixed-width decimal [seq] makes the
   payload's lexicographic order the arrival order, so the queue's
   comparator (key path, then payload) drains a flush batch in document
   order with arrival order as the tiebreak. *)

type op = {
  seq : int;
  spine : (string * Xmlio.Event.attr list) list; (* root .. parent *)
  node : Tree.element; (* the updated subtree, marker intact *)
  path : Keypath.component list; (* root .. node, pos = 0 *)
}

let buf_add_field buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let read_field s pos =
  let colon = String.index_from s pos ':' in
  let len = int_of_string (String.sub s pos (colon - pos)) in
  (String.sub s (colon + 1) len, colon + 1 + len)

let shallow_element name attrs = Tree.Element { Tree.name; attrs; children = [] }

let element_to_string el = Tree.to_string ~decl:false (Tree.Element el)

let element_of_string s =
  match Tree.of_string s with
  | Tree.Element el -> el
  | Tree.Text _ -> invalid_arg "Ingest: expected an element"

let encode_op op =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%012d" op.seq);
  Buffer.add_string buf (string_of_int (List.length op.spine));
  Buffer.add_char buf ';';
  List.iter
    (fun (name, attrs) ->
      buf_add_field buf (Tree.to_string ~decl:false (shallow_element name attrs)))
    op.spine;
  buf_add_field buf (element_to_string op.node);
  Keypath.encode_record op.path ~payload:(Buffer.contents buf)

let decode_op record =
  let path = Keypath.decode_path record in
  let payload = Keypath.decode_payload record in
  let seq = int_of_string (String.sub payload 0 12) in
  let semi = String.index_from payload 12 ';' in
  let spine_count = int_of_string (String.sub payload 12 (semi - 12)) in
  let pos = ref (semi + 1) in
  let spine =
    List.init spine_count (fun _ ->
        let s, next = read_field payload !pos in
        pos := next;
        let el = element_of_string s in
        (el.Tree.name, el.Tree.attrs))
  in
  let subtree, _ = read_field payload !pos in
  { seq; spine; node = element_of_string subtree; path }

(* ------------------------------------------------------------------ *)
(* Update-document decomposition.

   An update document is cut into per-subtree operations: any element
   carrying an [__op] marker is one operation, as is any markerless
   subtree with no markers below it (a whole-subtree upsert).  Elements
   above the cuts are spine: name and attributes only.  The merge
   matches a Null run (texts and unkeyed elements) by position, so an
   element that holds text or has no key is never spine: it is one
   operation, markers below it included.  The root is always spine (a
   marker on the root has no meaning under the structural merge and is
   rejected); when it holds text, its whole Null run is one text-shell
   operation. *)

let key_of_start ordering name attrs =
  match Ordering.key_of_start ordering name attrs with
  | Some k -> k
  | None -> invalid_arg "Ingest: ordering must be scan-evaluable"

let rec has_marker_below = function
  | Tree.Text _ -> false
  | Tree.Element el ->
      List.mem_assoc op_attr el.Tree.attrs || List.exists has_marker_below el.Tree.children

let decompose ~ordering (root : Tree.element) =
  let ops = ref [] in
  let comp name attrs = { Keypath.key = key_of_start ordering name attrs; pos = 0 } in
  let emit spine path node = ops := { seq = 0; spine; path; node } :: !ops in
  let unkeyed (el : Tree.element) =
    Key.equal (key_of_start ordering el.Tree.name el.Tree.attrs) Key.Null
  in
  let is_text = function Tree.Text _ -> true | Tree.Element _ -> false in
  let rec go rev_spine rev_path (el : Tree.element) ~depth =
    let marked = List.mem_assoc op_attr el.Tree.attrs in
    if depth = 0 && marked then invalid_arg "Ingest: __op marker on the document root";
    let rev_path = comp el.Tree.name el.Tree.attrs :: rev_path in
    let texts = List.exists is_text el.Tree.children in
    if
      depth > 0
      && (marked || texts || unkeyed el || not (List.exists has_marker_below el.Tree.children))
    then emit (List.rev rev_spine) (List.rev rev_path) el
    else begin
      (* only the root gets here holding text *)
      let in_shell = function
        | Tree.Text _ -> true
        | Tree.Element c -> texts && unkeyed c
      in
      if texts then
        emit (List.rev rev_spine) (List.rev rev_path)
          { el with Tree.children = List.filter in_shell el.Tree.children };
      let rev_spine = (el.Tree.name, el.Tree.attrs) :: rev_spine in
      List.iter
        (function
          | Tree.Element c as child when not (in_shell child) ->
              go rev_spine rev_path c ~depth:(depth + 1)
          | Tree.Element _ | Tree.Text _ -> ())
        el.Tree.children
    end
  in
  go [] [] root ~depth:0;
  List.rev !ops

(* ------------------------------------------------------------------ *)
(* Folding a drained batch into one update document.

   The accumulator mirrors the batch document under construction; every
   node remembers the arrival number of the last operation that shaped
   it, so operations arriving out of arrival order (the queue drains in
   document order: an op on a parent path sorts before an older op on a
   child path) still fold to the sequential-application result. *)

type unode = {
  u_name : string;
  u_key : Key.t;
  mutable u_attrs : Xmlio.Event.attr list; (* marker stripped *)
  mutable u_marker : marker;
  mutable u_seq : int;
  mutable u_nulls : uchild list; (* the Null run: texts and unkeyed children, in order *)
  mutable u_elems : unode list; (* keyed children, in any order *)
}

and uchild =
  | Utext of string
  | Uelem of unode

let is_null u = Key.equal u.u_key Key.Null

let rec unode_of_tree ~ordering ~seq (el : Tree.element) =
  let nulls, elems =
    List.partition_map
      (function
        | Tree.Text s -> Left (Utext s)
        | Tree.Element c ->
            let u = unode_of_tree ~ordering ~seq c in
            if is_null u then Left (Uelem u) else Right u)
      el.Tree.children
  in
  {
    u_name = el.Tree.name;
    u_key = key_of_start ordering el.Tree.name el.Tree.attrs;
    u_attrs = strip_op el.Tree.attrs;
    u_marker = marker_of_attrs el.Tree.attrs;
    u_seq = seq;
    u_nulls = nulls;
    u_elems = elems;
  }

let union_attrs left right =
  left @ List.filter (fun (k, _) -> not (List.mem_assoc k left)) right

let same_child name key u = String.equal u.u_name name && Key.compare u.u_key key = 0

(* Fold an incoming node [n] into the accumulated node [e] it matches,
   replaying sequential semantics: the later operation's marker decides,
   and a delete composed with surviving newer content becomes a replace
   (the base element must die, the newer content must live). *)
let rec fold_pair e n =
  if n.u_seq >= e.u_seq then
    match n.u_marker with
    | Delete | Replace -> n
    | Upsert -> (
        match e.u_marker with
        | Delete -> { n with u_marker = Replace }
        | (Replace | Upsert) as m -> merge_nodes e n ~marker:m ~seq:n.u_seq)
  else
    (* [n] is older than what already shaped this node *)
    match e.u_marker with
    | Delete -> e (* deleted later: the older op is moot *)
    | Replace -> e (* replaced wholesale later *)
    | Upsert -> (
        match n.u_marker with
        | Delete -> { e with u_marker = Replace }
        | Replace -> merge_nodes n e ~marker:Replace ~seq:e.u_seq
        | Upsert -> merge_nodes n e ~marker:Upsert ~seq:e.u_seq)

(* Combine an incoming keyed node with the accumulated keyed siblings. *)
and combine elems n =
  match List.partition (same_child n.u_name n.u_key) elems with
  | [], _ -> elems @ [ n ]
  | e :: _, rest -> rest @ [ fold_pair e n ]

(* Upsert-merge [r] (later) onto [l] (earlier): attribute union left
   first, keyed children combined recursively.  The Null runs are
   concatenated: within one merge pass at most one document feeds a
   node's Null run (see [split_passes]), so one of them is empty. *)
and merge_nodes l r ~marker ~seq =
  {
    u_name = l.u_name;
    u_key = l.u_key;
    u_attrs = union_attrs l.u_attrs r.u_attrs;
    u_marker = marker;
    u_seq = seq;
    u_nulls = l.u_nulls @ r.u_nulls;
    u_elems = List.fold_left combine l.u_elems r.u_elems;
  }

(* Add an operation's node to [cur]'s children: a keyed node combines
   with its keyed siblings, an unkeyed one joins the end of the Null run,
   which one document feeds in its document order. *)
let add_child cur n =
  if is_null n then cur.u_nulls <- cur.u_nulls @ [ Uelem n ]
  else cur.u_elems <- combine cur.u_elems n

(* Graft one operation onto the accumulator root, walking its spine. *)
let graft ~ordering root op =
  if root.u_name <> (match op.spine with (n, _) :: _ -> n | [] -> op.node.Tree.name) then
    invalid_arg
      (Printf.sprintf "Ingest: update root <%s> does not match base root <%s>"
         (match op.spine with (n, _) :: _ -> n | [] -> op.node.Tree.name)
         root.u_name);
  match op.spine with
  | [] ->
      (* the root's text shell: its whole Null run *)
      let run = unode_of_tree ~ordering ~seq:op.seq op.node in
      root.u_nulls <- root.u_nulls @ run.u_nulls;
      root.u_seq <- max root.u_seq op.seq
  | (_, root_attrs) :: spine_rest ->
      root.u_attrs <- union_attrs root.u_attrs (strip_op root_attrs);
      let rec descend cur = function
        | [] -> add_child cur (unode_of_tree ~ordering ~seq:op.seq op.node)
        | (name, attrs) :: rest -> (
            let key = key_of_start ordering name attrs in
            match List.find_opt (same_child name key) cur.u_elems with
            | Some c -> (
                match c.u_marker with
                | Delete when op.seq < c.u_seq -> () (* ancestor deleted later: moot *)
                | Delete ->
                    (* deleted earlier, now written below: the ancestor is
                       reborn as a replacement shell *)
                    c.u_marker <- Replace;
                    c.u_attrs <- union_attrs c.u_attrs (strip_op attrs);
                    descend c rest
                | Replace when op.seq < c.u_seq -> () (* replaced wholesale later *)
                | Replace | Upsert ->
                    c.u_attrs <- union_attrs c.u_attrs (strip_op attrs);
                    descend c rest)
            | None ->
                let c =
                  {
                    u_name = name;
                    u_key = key;
                    u_attrs = strip_op attrs;
                    u_marker = Upsert;
                    u_seq = op.seq;
                    u_nulls = [];
                    u_elems = [];
                  }
                in
                cur.u_elems <- cur.u_elems @ [ c ];
                descend c rest)
      in
      descend root spine_rest

(* Serialize the folded accumulator as a sorted event stream: the Null
   run first, in its order (the sorter's (key, position) order), then
   keyed elements by (key, tag) — the sibling order Struct_merge checks.
   Markers are re-attached for Batch_update. *)
let events_of_unode root =
  let acc = ref [] in
  let emit e = acc := e :: !acc in
  let rec go u =
    let attrs =
      match u.u_marker with
      | Delete -> (op_attr, "delete") :: u.u_attrs
      | Replace -> (op_attr, "replace") :: u.u_attrs
      | Upsert -> u.u_attrs
    in
    emit (Xmlio.Event.Start (u.u_name, attrs));
    List.iter (function Utext t -> emit (Xmlio.Event.Text t) | Uelem c -> go c) u.u_nulls;
    let sorted =
      List.stable_sort
        (fun a b ->
          let c = Key.compare a.u_key b.u_key in
          if c <> 0 then c else String.compare a.u_name b.u_name)
        u.u_elems
    in
    List.iter go sorted;
    emit (Xmlio.Event.End u.u_name)
  in
  go root;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* The ingest session *)

type flush_report = {
  batch_ops : int;
  batch_docs : int;
  index_dropped : int;
  skipped : bool;
  passes : int;
  merge : Batch_update.report option;
  pq : Extsort.Ext_pq.stats;
  pq_run_blocks : int;
  flush_io : Extmem.Io_stats.t;
  base_bytes : int;
  indexed_keys : int;
}

(* The positional index of one base generation.  It lives on its own
   device, replaced whole together with the base it describes. *)
type index = {
  tree : Extmem.Btree.t;
  dev : Extmem.Device.t;
  complete : bool; (* every top-level subtree has its entry *)
}

type t = {
  config : Nexsort.Config.t;
  ordering : Ordering.t;
  budget : Extmem.Memory_budget.t;
  arena : Extmem.Frame_arena.t;
  pq : Extsort.Ext_pq.t;
  root_name : string;
  mutable base : Extmem.Device.t;
  mutable generation : int; (* bases written by flushes; names each new base device *)
  mutable index : index;
  mutable next_seq : int;
  mutable doc_starts : int list; (* first op seq of each pending document, newest first *)
  mutable destroyed : bool;
}

(* The index key is the key's wire encoding, ordered by
   [Key.compare_cursors]: exactly {!Key.compare}, so distinct keys never
   share an entry, and the order in which a merge emits top-level
   subtrees — ascending, as the bulk loader needs. *)
let index_key k =
  let b = Buffer.create 16 in
  Key.encode b k;
  Buffer.contents b

let index_cmp a b = Key.compare_cursors (Extmem.Codec.cursor a) (Extmem.Codec.cursor b)

let index_frames = 4

(* A base generation being written: the XML writer onto its device, and
   the bulk load of its positional index from the same events.  A
   top-level subtree's offset is where the sink stands just after its
   start tag closes — the writer emits the ">" (or the "/>" of an empty
   element) lazily, as the first bytes after the start event — which is
   {!Xmlio.Parser.offset} right after that start tag's event. *)
type base_writer = {
  emit : Xmlio.Event.t -> unit;
  finish : unit -> index; (* closes the writer; the device is then complete *)
}

let open_base ~config ~ordering dev =
  let bw = Extmem.Block_writer.create dev in
  (* blocks big enough for the quarter-block entry limit even under tiny
     sort geometries; the B-tree's buffer pool is standalone
     (unaccounted), like any side index *)
  let index_dev =
    Extmem.Device.in_memory ~block_size:(max 1024 config.Nexsort.Config.block_size) ()
  in
  let loader = Extmem.Btree.bulk_loader ~frames:index_frames ~cmp:index_cmp index_dev in
  let complete = ref true in
  let open_key = ref None in
  let sink s =
    Extmem.Block_writer.write_string bw s;
    match !open_key with
    | None -> ()
    | Some key -> (
        open_key := None;
        let offset = Extmem.Block_writer.position bw in
        try Extmem.Btree.bulk_add loader ~key ~value:(string_of_int offset)
        with Invalid_argument _ -> complete := false)
  in
  let writer = Xmlio.Writer.to_fn sink in
  let depth = ref 0 in
  let emit e =
    Xmlio.Writer.event writer e;
    match e with
    | Xmlio.Event.Start (name, attrs) ->
        incr depth;
        if !depth = 2 then open_key := Some (index_key (key_of_start ordering name attrs))
    | Xmlio.Event.End _ -> decr depth
    | Xmlio.Event.Text _ -> ()
  in
  let finish () =
    Xmlio.Writer.close writer;
    let extent = Extmem.Block_writer.close bw in
    Extmem.Device.set_byte_length dev extent.Extmem.Extent.bytes;
    { tree = Extmem.Btree.bulk_finish loader; dev = index_dev; complete = !complete }
  in
  { emit; finish }

let pq_cmp a b =
  let c = Keypath.compare_encoded a b in
  if c <> 0 then c
  else compare (Keypath.decode_payload a) (Keypath.decode_payload b)

let create_device ~session ~ordering ~base () =
  let config = session.Nexsort.Session.config in
  let bs = config.Nexsort.Config.block_size in
  let base_dev = Nexsort.Config.scratch_device config ~name:"ingest-base-0" in
  (* the initial sort streams straight onto the base device *)
  let root_name = ref None in
  let index =
    let stream = Nexsort.open_stream ~session ~ordering ~input:base () in
    match
      let w = open_base ~config ~ordering base_dev in
      let rec pump () =
        match Nexsort.stream_events stream with
        | None -> ()
        | Some e ->
            (match (e, !root_name) with
            | Xmlio.Event.Start (name, _), None -> root_name := Some name
            | _ -> ());
            w.emit e;
            pump ()
      in
      pump ();
      w.finish ()
    with
    | index ->
        ignore (Nexsort.stream_finish stream);
        index
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (try ignore (Nexsort.stream_finish stream) with _ -> ());
        Printexc.raise_with_backtrace e bt
  in
  let root_name =
    match !root_name with
    | Some name -> name
    | None -> invalid_arg "Ingest: base document has no root element"
  in
  let budget =
    Extmem.Memory_budget.create ~blocks:config.Nexsort.Config.memory_blocks ~block_size:bs
  in
  let arena = Extmem.Frame_arena.create ~budget () in
  let pq_temp = Nexsort.Config.scratch_device config ~name:"ingest-pq" in
  let pq = Extsort.Ext_pq.create ~arena ~budget ~temp:pq_temp ~cmp:pq_cmp () in
  {
    config;
    ordering;
    budget;
    arena;
    pq;
    root_name;
    base = base_dev;
    generation = 0;
    index;
    next_seq = 0;
    doc_starts = [];
    destroyed = false;
  }

let create ?(config = Nexsort.Config.make ()) ~ordering ~base () =
  let base = Extmem.Device.of_string ~block_size:config.Nexsort.Config.block_size base in
  Engine.with_session config (fun session -> create_device ~session ~ordering ~base ())

let check_live t = if t.destroyed then invalid_arg "Ingest: session destroyed"

let add_update t doc =
  check_live t;
  let tree =
    match Tree.of_string doc with
    | Tree.Element el -> el
    | Tree.Text _ -> raise (Tree.Malformed "update document has no root element")
  in
  if tree.Tree.name <> t.root_name then
    invalid_arg
      (Printf.sprintf "Ingest: update root <%s> does not match base root <%s>" tree.Tree.name
         t.root_name);
  let ops = decompose ~ordering:t.ordering tree in
  t.doc_starts <- t.next_seq :: t.doc_starts;
  List.iter
    (fun op ->
      let op = { op with seq = t.next_seq } in
      t.next_seq <- t.next_seq + 1;
      Extsort.Ext_pq.insert t.pq (encode_op op))
    ops

let pending t = Extsort.Ext_pq.length t.pq

(* A delete whose top-level subtree is absent from the base is a no-op —
   unless another operation in the same batch touches that subtree (an
   earlier upsert may have created what the delete targets). *)
let index_droppable t ops op =
  marker_of_attrs op.node.Tree.attrs = Delete
  && t.index.complete
  && (match op.path with
     | _root :: top :: _ ->
         (not (Extmem.Btree.mem t.index.tree (index_key top.Keypath.key)))
         && not
              (List.exists
                 (fun other ->
                   other != op
                   &&
                   match other.path with
                   | _ :: otop :: _ -> Key.compare otop.Keypath.key top.Keypath.key = 0
                   | _ -> false)
                 ops)
     | _ -> false)

(* The sites whose Null run an operation feeds, each named by its path
   of (tag, key) steps: the parent of an unkeyed node, and every node of
   the subtree with a text or unkeyed child.  (Spine steps are keyed.) *)
let null_sites ~ordering op =
  let step name attrs = name ^ "\000" ^ index_key (key_of_start ordering name attrs) in
  let unkeyed name attrs = Key.equal (key_of_start ordering name attrs) Key.Null in
  let site rev = String.concat "\001" rev in
  let rev = List.rev_map (fun (name, attrs) -> step name attrs) op.spine in
  let node = op.node in
  let acc = if rev <> [] && unkeyed node.Tree.name node.Tree.attrs then [ site rev ] else [] in
  let rec subtree rev acc (el : Tree.element) =
    let rev = step el.Tree.name el.Tree.attrs :: rev in
    let feeds = function
      | Tree.Text _ -> true
      | Tree.Element c -> unkeyed c.Tree.name c.Tree.attrs
    in
    let acc = if List.exists feeds el.Tree.children then site rev :: acc else acc in
    List.fold_left
      (fun acc -> function Tree.Element c -> subtree rev acc c | Tree.Text _ -> acc)
      acc el.Tree.children
  in
  subtree rev acc node

(* Cut a batch into merge passes over whole documents, in arrival order.
   The merge matches a Null run positionally, so two documents feeding
   one Null run cannot be folded into one: a pass ends before a document
   that feeds a Null run an earlier document of the pass fed.  Each pass
   then folds to what applying its documents one at a time gives.  Ops
   keep their drain order within a pass. *)
let split_passes ~ordering ~doc_starts ops =
  let ndocs = Array.length doc_starts in
  (* the document of an op: the last one starting at or before its seq *)
  let doc_of seq =
    let rec go lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if doc_starts.(mid) <= seq then go mid hi else go lo mid
    in
    go 0 ndocs
  in
  let sites = Array.make ndocs [] in
  List.iter
    (fun op ->
      let d = doc_of op.seq in
      sites.(d) <- null_sites ~ordering op @ sites.(d))
    ops;
  let pass_of_doc = Array.make ndocs 0 in
  let fed = Hashtbl.create 16 in
  let pass = ref 0 in
  for d = 0 to ndocs - 1 do
    if List.exists (Hashtbl.mem fed) sites.(d) then begin
      incr pass;
      Hashtbl.reset fed
    end;
    List.iter (fun s -> Hashtbl.replace fed s ()) sites.(d);
    pass_of_doc.(d) <- !pass
  done;
  List.init (!pass + 1) (fun p -> List.filter (fun op -> pass_of_doc.(doc_of op.seq) = p) ops)
  |> List.filter (( <> ) [])

(* Counters summed over a flush's passes; spans are the last pass's. *)
let add_reports (acc : Batch_update.report option) (r : Batch_update.report) =
  match acc with
  | None -> r
  | Some a ->
      {
        Batch_update.merge =
          {
            r.merge with
            Struct_merge.left_events = a.merge.left_events + r.merge.left_events;
            right_events = a.merge.right_events + r.merge.right_events;
            output_events = a.merge.output_events + r.merge.output_events;
            matched_elements = a.merge.matched_elements + r.merge.matched_elements;
          };
        deletes = a.deletes + r.deletes;
        replaces = a.replaces + r.replaces;
        unmatched_deletes = a.unmatched_deletes + r.unmatched_deletes;
      }

let base_bytes t = Extmem.Device.byte_length t.base

let index_keys t = Extmem.Btree.length t.index.tree

let flush t =
  check_live t;
  let pq_stats () = Extsort.Ext_pq.stats t.pq in
  let doc_starts = Array.of_list (List.rev t.doc_starts) in
  t.doc_starts <- [];
  let batch_docs = Array.length doc_starts in
  let finish ?merge ~passes ~batch_ops ~index_dropped ~skipped ~flush_io () =
    {
      batch_ops;
      batch_docs;
      index_dropped;
      skipped;
      passes;
      merge;
      pq = pq_stats ();
      pq_run_blocks = Extsort.Ext_pq.run_blocks t.pq;
      flush_io;
      base_bytes = base_bytes t;
      indexed_keys = index_keys t;
    }
  in
  let rec drain acc =
    match Extsort.Ext_pq.delete_min t.pq with
    | None -> List.rev acc
    | Some r -> drain (decode_op r :: acc)
  in
  let ops = drain [] in
  if ops = [] then
    finish ~passes:0 ~batch_ops:0 ~index_dropped:0 ~skipped:true
      ~flush_io:(Extmem.Io_stats.create ()) ()
  else begin
    let live_ops = List.filter (fun op -> not (index_droppable t ops op)) ops in
    let index_dropped = List.length ops - List.length live_ops in
    if live_ops = [] then
      finish ~passes:0 ~batch_ops:(List.length ops) ~index_dropped ~skipped:true
        ~flush_io:(Extmem.Io_stats.create ()) ()
    else begin
      (* Devices are append-allocated and cannot be rewound, so each
         pass writes the new base, and its index, to fresh devices and
         drops the old ones (reclaimed with the in-memory backend).  The
         last pass's base and index are swapped in only once every merge
         has completed: a fault mid-flush leaves the old base and its
         index as they were. *)
      let merge_pass (src, _, flush_io, report) (i, pass_ops) =
        let root =
          {
            u_name = t.root_name;
            u_key = Key.Null;
            u_attrs = [];
            u_marker = Upsert;
            u_seq = 0;
            u_nulls = [];
            u_elems = [];
          }
        in
        List.iter (graft ~ordering:t.ordering root) pass_ops;
        let spare =
          Nexsort.Config.scratch_device t.config
            ~name:(Printf.sprintf "ingest-base-%d" (t.generation + 1 + i))
        in
        let io () =
          Extmem.Io_stats.add
            (Extmem.Io_stats.snapshot (Extmem.Device.stats src))
            (Extmem.Io_stats.snapshot (Extmem.Device.stats spare))
        in
        let io_before = io () in
        let pb = Xmlio.Parser.of_reader (Extmem.Block_reader.of_device src) in
        let w = open_base ~config:t.config ~ordering:t.ordering spare in
        let updates = ref (events_of_unode root) in
        let pull_updates () =
          match !updates with
          | [] -> None
          | e :: rest ->
              updates := rest;
              Some e
        in
        let merge =
          Batch_update.apply_events ~ordering:t.ordering
            ~base:(fun () -> Xmlio.Parser.next pb)
            ~updates:pull_updates
            ~emit:w.emit ()
        in
        let index = w.finish () in
        let flush_io = Extmem.Io_stats.add flush_io (Extmem.Io_stats.diff (io ()) io_before) in
        (spare, Some index, flush_io, Some (add_reports report merge))
      in
      let passes = split_passes ~ordering:t.ordering ~doc_starts live_ops in
      let base, index, flush_io, merge =
        List.fold_left merge_pass
          (t.base, None, Extmem.Io_stats.create (), None)
          (List.mapi (fun i p -> (i, p)) passes)
      in
      t.base <- base;
      t.index <- Option.get index;
      t.generation <- t.generation + List.length passes;
      (* The old generation just became garbage all at once: megabytes of
         in-memory device blocks.  The merge allocates too little for the
         GC's allocation-paced cycles to notice, so without a collection
         here two or three dead generations pile up and raise peak memory
         by that much; a full major costs a few milliseconds per flush. *)
      Gc.full_major ();
      finish ?merge ~passes:(List.length passes) ~batch_ops:(List.length ops) ~index_dropped
        ~skipped:false ~flush_io ()
    end
  end

let flush_report_json (r : flush_report) =
  Obs.Json.Obj
    [ ("batch_ops", Obs.Json.Int r.batch_ops);
      ("batch_docs", Obs.Json.Int r.batch_docs);
      ("index_dropped", Obs.Json.Int r.index_dropped);
      ("skipped", Obs.Json.Bool r.skipped);
      ("passes", Obs.Json.Int r.passes);
      ( "merge",
        match r.merge with
        | None -> Obs.Json.Null
        | Some m ->
            Obs.Json.Obj
              [ ("matched_elements", Obs.Json.Int m.Batch_update.merge.Struct_merge.matched_elements);
                ("output_events", Obs.Json.Int m.Batch_update.merge.Struct_merge.output_events);
                ("deletes", Obs.Json.Int m.Batch_update.deletes);
                ("replaces", Obs.Json.Int m.Batch_update.replaces);
                ("unmatched_deletes", Obs.Json.Int m.Batch_update.unmatched_deletes) ] );
      ( "pq",
        Obs.Json.Obj
          [ ("inserts", Obs.Json.Int r.pq.Extsort.Ext_pq.inserts);
            ("deletes", Obs.Json.Int r.pq.Extsort.Ext_pq.deletes);
            ("spills", Obs.Json.Int r.pq.Extsort.Ext_pq.spills);
            ("spilled_records", Obs.Json.Int r.pq.Extsort.Ext_pq.spilled_records);
            ("compactions", Obs.Json.Int r.pq.Extsort.Ext_pq.compactions);
            ("run_blocks", Obs.Json.Int r.pq_run_blocks) ] );
      ("flush_io", Obs.Json.io_stats r.flush_io);
      ("base_bytes", Obs.Json.Int r.base_bytes);
      ("indexed_keys", Obs.Json.Int r.indexed_keys) ]

let contents t =
  check_live t;
  Extmem.Device.contents t.base

let base_device t = t.base

let index_device t = t.index.dev

let find_offset t key =
  check_live t;
  Option.map int_of_string (Extmem.Btree.find t.index.tree (index_key key))

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    Extsort.Ext_pq.destroy t.pq
  end
