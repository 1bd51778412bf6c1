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
   above the cuts are spine: name and attributes only — their direct
   text children, if any, become a text-shell upsert of their own so no
   content is lost.  The root is always spine (a marker on the root has
   no meaning under the structural merge and is rejected). *)

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
  let rec go rev_spine rev_path (el : Tree.element) ~depth =
    let marked = List.mem_assoc op_attr el.Tree.attrs in
    if depth = 0 && marked then invalid_arg "Ingest: __op marker on the document root";
    let rev_path = comp el.Tree.name el.Tree.attrs :: rev_path in
    if depth > 0 && (marked || not (List.exists has_marker_below el.Tree.children)) then
      emit (List.rev rev_spine) (List.rev rev_path) el
    else begin
      let texts =
        List.filter (function Tree.Text _ -> true | Tree.Element _ -> false) el.Tree.children
      in
      if texts <> [] then
        emit (List.rev rev_spine) (List.rev rev_path) { el with Tree.children = texts };
      let rev_spine = (el.Tree.name, el.Tree.attrs) :: rev_spine in
      List.iter
        (function
          | Tree.Text _ -> ()
          | Tree.Element c -> go rev_spine rev_path c ~depth:(depth + 1))
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
  mutable u_texts : string list;
  mutable u_elems : unode list;
}

let rec unode_of_tree ~ordering ~seq (el : Tree.element) =
  let texts, elems =
    List.partition_map
      (function
        | Tree.Text s -> Left s
        | Tree.Element c -> Right (unode_of_tree ~ordering ~seq c))
      el.Tree.children
  in
  {
    u_name = el.Tree.name;
    u_key = key_of_start ordering el.Tree.name el.Tree.attrs;
    u_attrs = strip_op el.Tree.attrs;
    u_marker = marker_of_attrs el.Tree.attrs;
    u_seq = seq;
    u_texts = texts;
    u_elems = elems;
  }

let union_attrs left right =
  left @ List.filter (fun (k, _) -> not (List.mem_assoc k left)) right

let same_child name key u = String.equal u.u_name name && Key.compare u.u_key key = 0

(* Combine an incoming node with the accumulated sibling list, replaying
   sequential semantics: the later operation's marker decides, and a
   delete composed with surviving newer content becomes a replace (the
   base element must die, the newer content must live). *)
let rec combine elems n =
  match List.partition (same_child n.u_name n.u_key) elems with
  | [], _ -> elems @ [ n ]
  | e :: _, rest ->
      let keep u = rest @ [ u ] in
      if n.u_seq >= e.u_seq then
        match n.u_marker with
        | Delete | Replace -> keep n
        | Upsert -> (
            match e.u_marker with
            | Delete -> keep { n with u_marker = Replace }
            | (Replace | Upsert) as m -> keep (merge_nodes e n ~marker:m ~seq:n.u_seq))
      else
        (* [n] is older than what already shaped this node *)
        match e.u_marker with
        | Delete -> keep e (* deleted later: the older op is moot *)
        | Replace -> keep e (* replaced wholesale later *)
        | Upsert -> (
            match n.u_marker with
            | Delete -> keep { e with u_marker = Replace }
            | Replace -> keep (merge_nodes n e ~marker:Replace ~seq:e.u_seq)
            | Upsert -> keep (merge_nodes n e ~marker:Upsert ~seq:e.u_seq))

(* Upsert-merge [r] (later) onto [l] (earlier): attribute union left
   first, Struct_merge's text rule, children combined recursively. *)
and merge_nodes l r ~marker ~seq =
  {
    u_name = l.u_name;
    u_key = l.u_key;
    u_attrs = union_attrs l.u_attrs r.u_attrs;
    u_marker = marker;
    u_seq = seq;
    u_texts = (if l.u_texts = r.u_texts then l.u_texts else l.u_texts @ r.u_texts);
    u_elems = List.fold_left combine l.u_elems r.u_elems;
  }

(* Graft one operation onto the accumulator root, walking its spine. *)
let graft ~ordering root op =
  if root.u_name <> (match op.spine with (n, _) :: _ -> n | [] -> op.node.Tree.name) then
    invalid_arg
      (Printf.sprintf "Ingest: update root <%s> does not match base root <%s>"
         (match op.spine with (n, _) :: _ -> n | [] -> op.node.Tree.name)
         root.u_name);
  match op.spine with
  | [] ->
      (* text-shell of the root itself *)
      let texts =
        List.filter_map
          (function Tree.Text s -> Some s | Tree.Element _ -> None)
          op.node.Tree.children
      in
      root.u_texts <- (if root.u_texts = texts then root.u_texts else root.u_texts @ texts);
      root.u_seq <- max root.u_seq op.seq
  | (_, root_attrs) :: spine_rest ->
      root.u_attrs <- union_attrs root.u_attrs (strip_op root_attrs);
      let rec descend cur = function
        | [] -> cur.u_elems <- combine cur.u_elems (unode_of_tree ~ordering ~seq:op.seq op.node)
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
                    u_texts = [];
                    u_elems = [];
                  }
                in
                cur.u_elems <- cur.u_elems @ [ c ];
                descend c rest)
      in
      descend root spine_rest

(* Serialize the folded accumulator as a sorted event stream: texts
   first, element children by (key, tag) — the sibling order
   Struct_merge checks — markers re-attached for Batch_update. *)
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
    List.iter (fun t -> emit (Xmlio.Event.Text t)) u.u_texts;
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
  mutable generation : int; (* flush count; names each new base device *)
  mutable index : index;
  mutable next_seq : int;
  mutable batch_docs : int;
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
   the reader offset a parser reports for that start tag. *)
type base_writer = {
  emit : Xmlio.Event.t -> unit;
  finish : unit -> index; (* closes the writer; the device is then complete *)
}

let open_base ~config ~ordering dev =
  let bw = Extmem.Block_writer.create dev in
  (* blocks big enough for the quarter-block entry limit even under tiny
     sort geometries; the pager is standalone (unaccounted), like any
     side index *)
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

let create ?(config = Nexsort.Config.make ()) ?session ~ordering ~base () =
  let bs = config.Nexsort.Config.block_size in
  let base_dev = Nexsort.Config.scratch_device config ~name:"ingest-base-0" in
  (* the initial sort streams straight onto the base device *)
  let root_name = ref None in
  let index =
    let input = Extmem.Device.of_string ~block_size:bs base in
    let stream = Nexsort.open_stream ~config ?session ~ordering ~input () in
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
    batch_docs = 0;
    destroyed = false;
  }

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
  List.iter
    (fun op ->
      let op = { op with seq = t.next_seq } in
      t.next_seq <- t.next_seq + 1;
      Extsort.Ext_pq.insert t.pq (encode_op op))
    ops;
  t.batch_docs <- t.batch_docs + 1

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

let base_bytes t = Extmem.Device.byte_length t.base

let index_keys t = Extmem.Btree.length t.index.tree

let flush t =
  check_live t;
  let pq_stats () = Extsort.Ext_pq.stats t.pq in
  let batch_docs = t.batch_docs in
  let finish ?merge ~batch_ops ~index_dropped ~skipped ~flush_io () =
    t.batch_docs <- 0;
    {
      batch_ops;
      batch_docs;
      index_dropped;
      skipped;
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
  if ops = [] then finish ~batch_ops:0 ~index_dropped:0 ~skipped:true ~flush_io:(Extmem.Io_stats.create ()) ()
  else begin
    let live_ops = List.filter (fun op -> not (index_droppable t ops op)) ops in
    let index_dropped = List.length ops - List.length live_ops in
    if live_ops = [] then
      finish ~batch_ops:(List.length ops) ~index_dropped ~skipped:true
        ~flush_io:(Extmem.Io_stats.create ()) ()
    else begin
      let root =
        {
          u_name = t.root_name;
          u_key = Key.Null;
          u_attrs = [];
          u_marker = Upsert;
          u_seq = 0;
          u_texts = [];
          u_elems = [];
        }
      in
      List.iter (graft ~ordering:t.ordering root) live_ops;
      let update_events = events_of_unode root in
      (* Devices are append-allocated and cannot be rewound, so each
         flush writes the new base, and its index, to fresh devices and
         drops the old ones (reclaimed with the in-memory backend).  Both
         are swapped in only once the merge has completed: a fault
         mid-flush leaves the old base and its index as they were. *)
      let spare =
        Nexsort.Config.scratch_device t.config
          ~name:(Printf.sprintf "ingest-base-%d" (t.generation + 1))
      in
      let io_before =
        Extmem.Io_stats.add
          (Extmem.Io_stats.snapshot (Extmem.Device.stats t.base))
          (Extmem.Io_stats.snapshot (Extmem.Device.stats spare))
      in
      let pb = Xmlio.Parser.of_reader (Extmem.Block_reader.of_device t.base) in
      let w = open_base ~config:t.config ~ordering:t.ordering spare in
      let updates = ref update_events in
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
          ~emit:w.emit
      in
      let index = w.finish () in
      let io_after =
        Extmem.Io_stats.add
          (Extmem.Io_stats.snapshot (Extmem.Device.stats t.base))
          (Extmem.Io_stats.snapshot (Extmem.Device.stats spare))
      in
      t.base <- spare;
      t.index <- index;
      t.generation <- t.generation + 1;
      (* The old generation just became garbage all at once: megabytes of
         in-memory device blocks.  The merge allocates too little for the
         GC's allocation-paced cycles to notice, so without a collection
         here two or three dead generations pile up and raise peak memory
         by that much; a full major costs a few milliseconds per flush. *)
      Gc.full_major ();
      finish ~merge ~batch_ops:(List.length ops) ~index_dropped ~skipped:false
        ~flush_io:(Extmem.Io_stats.diff io_after io_before)
        ()
    end
  end

let flush_report_json (r : flush_report) =
  Obs.Json.Obj
    [ ("batch_ops", Obs.Json.Int r.batch_ops);
      ("batch_docs", Obs.Json.Int r.batch_docs);
      ("index_dropped", Obs.Json.Int r.index_dropped);
      ("skipped", Obs.Json.Bool r.skipped);
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
