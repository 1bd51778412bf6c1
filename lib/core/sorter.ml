let src = Logs.Src.create "nexsort" ~doc:"NEXSORT sorting and output phases"

module Log = (val Logs.src_log src : Logs.LOG)

type gc_stats = {
  gc_minor_words : float;
  gc_major_words : float;
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
}

type report = {
  events : int;
  elements : int;
  text_nodes : int;
  height : int;
  subtree_sorts : int;
  in_memory_sorts : int;
  external_sorts : int;
  fragment_runs : int;
  fragment_merges : int;
  merge_passes : int;
  runs_created : int;
  run_blocks : int;
  run_inline_bytes : int;
  run_peak_live_blocks : int;
  temp_peak_live_blocks : int;
  input_io : Extmem.Io_stats.t;
  output_io : Extmem.Io_stats.t;
  breakdown : (string * Extmem.Io_stats.t) list;
  total_io : Extmem.Io_stats.t;
  wall_seconds : float;
  gc : gc_stats;  (** allocation/collection delta over the whole sort *)
  spans : Obs.Span.t;
  metrics : Obs.Json.t;
  arena : (string * Extmem.Frame_arena.owner_stats) list;
  plan : (string * int * Plan.grant list) list;
}

(* ---- path-stack frames ----

   One fixed-size frame per open element: where its entries begin on the
   data stack, its identity for tiebreaks, its key when scan-evaluable,
   and how many incomplete sorted runs (fragments) were created for it.
   The fragment ids themselves are path-stack entries of their own, just
   below the frame, in creation order (oldest lowest).  Ids are only ever
   added for the top frame, so an element's ids never interleave with
   those of its ancestors or descendants: popping the frame and then
   [nfrags] entries recovers exactly its ids. *)
type frame = {
  loc : int;           (* data-stack position of the element's Start entry *)
  children_loc : int;  (* data-stack position just after the Start entry *)
  fpos : int;          (* document position *)
  flevel : int;        (* level, root = 1 *)
  fkey : Key.t option; (* key when the criterion is scan-evaluable *)
  nfrags : int;        (* fragment id entries directly below the frame *)
}

(* Every stack entry is encoded into the session's scratch encoder and
   pushed straight from its buffer; frames, fragment ids and output
   locations are read back in place through a stack cursor. *)
let push_enc stack enc =
  Extmem.Ext_stack.push_bytes stack (Extmem.Codec.Enc.buffer enc) 0 (Extmem.Codec.Enc.length enc)

let encode_frame enc ~loc ~children_loc ~fpos ~flevel ~fkey ~nfrags =
  Extmem.Codec.Enc.clear enc;
  Extmem.Codec.Enc.add_varint enc loc;
  Extmem.Codec.Enc.add_varint enc children_loc;
  Extmem.Codec.Enc.add_varint enc fpos;
  Extmem.Codec.Enc.add_varint enc flevel;
  Key.encode_opt_enc enc fkey;
  Extmem.Codec.Enc.add_varint enc nfrags

let decode_frame c =
  let loc = Extmem.Codec.get_varint c in
  let children_loc = Extmem.Codec.get_varint c in
  let fpos = Extmem.Codec.get_varint c in
  let flevel = Extmem.Codec.get_varint c in
  let fkey = Key.decode_opt c in
  let nfrags = Extmem.Codec.get_varint c in
  { loc; children_loc; fpos; flevel; fkey; nfrags }

let push_frag_id stack enc id =
  Extmem.Codec.Enc.clear enc;
  Extmem.Codec.Enc.add_varint enc id;
  push_enc stack enc

(* ---- the algorithm ---- *)

type state = {
  session : Session.t;
  scan_evaluable : bool;
  evaluator : Ordering.Evaluator.eval;
  mutable pos : int;
  mutable level : int;
  mutable n_events : int;
  mutable n_elements : int;
  mutable n_text : int;
  mutable max_level : int;
  mutable n_subtree_sorts : int;
  mutable n_in_memory : int;
  mutable n_external : int;
  mutable n_fragment_runs : int;
  mutable n_fragment_merges : int;
  mutable merge_passes : int;   (* most passes one fragment merge took *)
  (* the top path-stack frame's [children_loc] and [flevel], so
     degeneration need not read the path stack after every event; the
     path stack stays the only store of frames *)
  mutable top_children_loc : int;
  mutable top_flevel : int;
  (* root fusion: when [fuse], the root's sorted stream is kept open
     here instead of being drained into the root run; the output phase
     consumes it *)
  fuse : bool;
  mutable root : string Pipe.opened option;
  spans : Obs.Spans.t;
  gc0 : Gc.stat;  (* GC counters when the sort opened (quick_stat) *)
  mw0 : float;  (* Gc.minor_words at open: exact, unlike quick_stat's
                   minor_words which only refreshes at collections *)
}

let in_span st name f = Obs.Spans.with_span st.spans name f

(* The entry the session's scratch encoder holds, onto the data stack. *)
let push_scratch st = push_enc st.session.Session.data_stack st.session.Session.enc_scratch

(* End entries carry no names, so they encode without touching the
   dictionary *)
let push_end st ~level ~pos ~key =
  Entry.encode_end_into st.session.Session.enc_scratch ~level ~pos ~key;
  push_scratch st

let degeneration st = st.session.Session.config.Config.degeneration

let push_frame st ~loc ~children_loc ~fpos ~flevel ~fkey ~nfrags =
  encode_frame st.session.Session.enc_scratch ~loc ~children_loc ~fpos ~flevel ~fkey ~nfrags;
  push_enc st.session.Session.path_stack st.session.Session.enc_scratch;
  st.top_children_loc <- children_loc;
  st.top_flevel <- flevel

(* Re-read the top frame's [children_loc] and [flevel] into the cache,
   skipping the fields before them and the key after them. *)
let cache_top st =
  let c = Extmem.Ext_stack.top_cursor st.session.Session.path_stack in
  Extmem.Codec.skip_varint c;
  st.top_children_loc <- Extmem.Codec.get_varint c;
  Extmem.Codec.skip_varint c;
  st.top_flevel <- Extmem.Codec.get_varint c

let pop_frame st = decode_frame (Extmem.Ext_stack.pop_cursor st.session.Session.path_stack)

(* Pop an element's frame and then its fragment ids, which come off
   newest first; consing them back yields creation order.  The parent's
   frame is now on top: re-read it into the cache when degeneration will
   consult it (without degeneration the path stack is left alone). *)
let pop_element st =
  let path = st.session.Session.path_stack in
  let frame = pop_frame st in
  let rec ids n acc =
    if n = 0 then acc
    else ids (n - 1) (Extmem.Codec.get_varint (Extmem.Ext_stack.pop_cursor path) :: acc)
  in
  let frags = ids frame.nfrags [] in
  if degeneration st && not (Extmem.Ext_stack.is_empty path) then cache_top st;
  (frame, frags)

let packed st = st.session.Session.config.Config.encoding = Config.Packed

let depth_limit st = st.session.Session.config.Config.depth_limit

(* Entries of the data-stack range [from_, top), as views over the
   stored payloads — names, attributes and text stay encoded. *)
let collect_views st ~from_ =
  let acc = ref [] in
  Extmem.Ext_stack.iter_entries_from st.session.Session.data_stack ~pos:from_ (fun payload ->
      acc := Session.view_entry st.session payload :: !acc);
  List.rev !acc

(* ---- graceful degeneration (§3.2) ----

   When the children accumulated for the innermost open element fill the
   sorting arena, sort them in memory now and park them as an incomplete
   sorted run, exactly like external merge sort's initial run creation. *)

(* The data-stack entries from [from_] up, sorted into a fragment run. *)
let write_fragment st ~from_ =
  st.n_fragment_runs <- st.n_fragment_runs + 1;
  Subtree_sort.write_fragment st.session (collect_views st ~from_)

let maybe_degenerate st =
  let path = st.session.Session.path_stack in
  if degeneration st && not (Extmem.Ext_stack.is_empty path) then begin
    (* below the depth limit nothing needs sorting: the region will be
       copied verbatim at the element's end, so never fragment it *)
    let below_limit =
      match depth_limit st with
      | Some d -> st.top_flevel >= d + 1
      | None -> false
    in
    if not below_limit then begin
    let children_loc = st.top_children_loc in
    let region = Extmem.Ext_stack.length st.session.Session.data_stack - children_loc in
    if region >= Plan.sort_arena_bytes st.session.Session.plan && region > 0 then begin
      in_span st "fragment_write" @@ fun () ->
      let frag = write_fragment st ~from_:children_loc in
      Log.debug (fun m ->
          m "degeneration: level %d filled the arena, fragment run %d (%d bytes)" st.top_flevel
            frag region);
      Extmem.Ext_stack.truncate_to st.session.Session.data_stack children_loc;
      (* the new id goes just below the frame: O(1) path-stack work *)
      let top = pop_frame st in
      push_frag_id path st.session.Session.enc_scratch frag;
      push_frame st ~loc:top.loc ~children_loc:top.children_loc ~fpos:top.fpos
        ~flevel:top.flevel ~fkey:top.fkey ~nfrags:(top.nfrags + 1)
    end
    end
  end

(* ---- subtree sorts (Figure 4, lines 10-12) ---- *)

(* How a complete subtree gets sorted: a merge of its fragments when it
   has any; a verbatim copy at the depth limit (d_s = d+1, §3.2: "no
   sorting is needed but the subtree is still written to disk, ensuring
   that we do not carry large subtrees along" — it holds no run pointers,
   since nothing deeper ever collapses); else an in-memory or a key-path
   external sort, by size. *)
let sort_kind st frame frags ~size =
  let at_limit =
    match depth_limit st with
    | Some d -> frame.flevel = d + 1 && frame.flevel > 1
    | None -> false
  in
  if frags <> [] then `Merge frags
  else if at_limit then `Copy
  else if size <= Plan.sort_arena_bytes st.session.Session.plan then `In_memory
  else `External

let external_scan_input st frame =
  let data = st.session.Session.data_stack in
  if st.scan_evaluable then begin
    let cursor = Extmem.Ext_stack.cursor_from data ~pos:frame.loc in
    (`Forward, fun () -> Option.map (Session.view_entry st.session) (cursor ()))
  end
  else
    ( `Reverse,
      fun () ->
        if Extmem.Ext_stack.length data > frame.loc then
          Some (Session.view_entry st.session (Extmem.Ext_stack.pop data))
        else None )

(* Open the sorted entries of the complete subtree at [frame.loc], and
   name the buffer a drain into a run leases (see [Subtree_sort.to_run]).
   Opening may consume the subtree's data-stack entries (a reverse scan
   pops them); the caller truncates the rest. *)
let open_subtree st frame kind =
  let session = st.session in
  let data = session.Session.data_stack in
  match kind with
  | `Merge frags ->
      (* the children after the last fragment become one more *)
      let fragments =
        if Extmem.Ext_stack.length data > frame.children_loc then
          frags @ [ write_fragment st ~from_:frame.children_loc ]
        else frags
      in
      (* the element's own Start entry is the first entry at frame.loc *)
      let start_view =
        match Extmem.Ext_stack.cursor_from data ~pos:frame.loc () with
        | Some payload -> Session.view_entry session payload
        | None -> assert false
      in
      st.n_fragment_merges <- st.n_fragment_merges + 1;
      let merged, passes = Subtree_sort.merge_fragments_source session ~start_view ~fragments in
      st.merge_passes <- max st.merge_passes passes;
      (merged, None)
  | `Copy -> ({ Pipe.pull = Extmem.Ext_stack.cursor_from data ~pos:frame.loc; close = ignore }, None)
  | `In_memory ->
      st.n_in_memory <- st.n_in_memory + 1;
      (Subtree_sort.sort_in_memory_source session (collect_views st ~from_:frame.loc), None)
  | `External ->
      st.n_external <- st.n_external + 1;
      let scan, input = external_scan_input st frame in
      ( Subtree_sort.sort_external_source session ~input ~scan,
        Some "external sort output buffer" )

(* [p] is the parser's reusable scratch: everything needed later is
   copied out here (the encoded entry, the frame fields). *)
let on_start st (p : Xmlio.Event.packed) =
  st.level <- st.level + 1;
  st.pos <- st.pos + 1;
  if st.level > st.max_level then st.max_level <- st.level;
  st.n_elements <- st.n_elements + 1;
  let key =
    Ordering.Evaluator.on_start_lookup st.evaluator p.Xmlio.Event.pname
      (Xmlio.Event.packed_attr p)
  in
  let loc = Extmem.Ext_stack.length st.session.Session.data_stack in
  Entry.encode_start_of_packed_into st.session.Session.config.Config.encoding
    st.session.Session.dict st.session.Session.enc_scratch ~level:st.level ~pos:st.pos ~key p;
  push_scratch st;
  push_frame st ~loc
    ~children_loc:(Extmem.Ext_stack.length st.session.Session.data_stack)
    ~fpos:st.pos ~flevel:st.level ~fkey:key ~nfrags:0;
  maybe_degenerate st

let on_text st content =
  st.pos <- st.pos + 1;
  st.n_text <- st.n_text + 1;
  Ordering.Evaluator.on_text st.evaluator content;
  Entry.encode_text_into st.session.Session.enc_scratch ~level:(st.level + 1) ~pos:st.pos content;
  push_scratch st;
  maybe_degenerate st

(* An element ended: its subtree is complete.  The root's sorted stream
   goes to the output phase under root fusion; otherwise a subtree big
   enough (and the root always) is sorted into a run and replaced by a
   pointer to it. *)
let on_end st =
  let key_end = Ordering.Evaluator.on_end st.evaluator in
  let frame, frags = pop_element st in
  st.level <- st.level - 1;
  let resolved_key =
    match frame.fkey with
    | Some k -> k
    | None -> Option.value key_end ~default:Key.Null
  in
  let data = st.session.Session.data_stack in
  let is_root = frame.flevel = 1 in
  let fused = st.fuse && is_root in
  (* a fragment merge synthesizes the element's End entry itself.  The
     fused root's carries Null: the root has no siblings, so its key
     orders nothing, and Null keeps its external sort's key paths short *)
  if frags = [] && not (packed st) then
    push_end st ~level:frame.flevel ~pos:frame.fpos
      ~key:(Some (if fused then Key.Null else resolved_key));
  let size = Extmem.Ext_stack.length data - frame.loc in
  if fused then begin
    in_span st "root_sort" @@ fun () ->
    st.root <- Some (fst (open_subtree st frame (sort_kind st frame frags ~size)));
    st.n_subtree_sorts <- st.n_subtree_sorts + 1;
    Extmem.Ext_stack.truncate_to data frame.loc
  end
  else begin
    let depth_ok =
      match depth_limit st with
      | None -> true
      | Some d -> frame.flevel <= d + 1
    in
    if frags <> [] || ((size >= st.session.Session.config.Config.threshold || is_root) && depth_ok)
    then begin
      let kind = sort_kind st frame frags ~size in
      Log.debug (fun m ->
          m "collapse: level %d pos %d, %d bytes, %s" frame.flevel frame.fpos size
            (match kind with
            | `Merge f -> Printf.sprintf "merge of %d fragments" (List.length f)
            | `Copy -> "verbatim copy (depth limit)"
            | `In_memory -> "in-memory sort"
            | `External -> "external key-path sort"));
      let span =
        match kind with
        | `Merge _ -> "fragment_merge"
        | `Copy -> "subtree_copy"
        | `In_memory | `External -> "subtree_sorts"
      in
      in_span st span @@ fun () ->
      let entries, buffer = open_subtree st frame kind in
      Subtree_sort.to_run ?buffer st.session entries ~pointer:(fun run tail tail_len ->
          Entry.encode_run_ptr_into st.session.Session.enc_scratch ~level:frame.flevel
            ~pos:frame.fpos ~key:resolved_key ~run ~bytes:size ~tail ~tail_len);
      st.n_subtree_sorts <- st.n_subtree_sorts + 1;
      Extmem.Ext_stack.truncate_to data frame.loc;
      push_scratch st
    end;
    (* the parent's children region just grew (run pointer or uncollapsed
       subtree): it may now fill the arena *)
    maybe_degenerate st
  end

(* ---- output phase (Figure 4, lines 13-21) ---- *)

(* A reader of a pointed run — the one being read, or one suspended at a
   run pointer — and the leased frames it holds: its buffer, then one
   more while it holds a non-empty tail in memory. *)
type run_reader = {
  reader : Extmem.Block_reader.t;
  run : Extmem.Run_store.id;
  tail_len : int;
  buffer : bytes;
  mutable tail_frame : bytes option;
      (* the frame holding its tail until the buffer takes it, unless
         parked *)
}

let frames r = r.buffer :: Option.to_list r.tail_frame

(* The run traversal: the depth-first walk through the tree of runs.
   Every reader's frames, active or suspended, are held on one arena
   lease ("run traversal"), which grows over the blocks the output
   phase's plan leaves free, the idle data and path windows' included.
   At a run pointer the enclosing reader is suspended {e resident}, its
   buffered block, tail and position kept on [resident], so resuming it
   costs no I/O.  Only when the budget has no
   frame for the new reader does the paper's external output-location
   stack take over: the oldest resident reader is spilled onto it as a
   (run, offset, tail) entry and its frames reused — or, with none
   resident, the enclosing reader itself — and its resume reopens the
   run at the offset, re-reading that block (none inside the tail).
   A reader holds its run's tail in a frame of its own; a tail that
   finds no frame, with no reader left resident to spill, is parked on
   the same stack until its reader reaches it and the reader's buffer
   takes it.  Memory stays within the budget and O(1) in the document's
   height. *)
type traversal = {
  t_session : Session.t;
  lease : Extmem.Frame_arena.lease;
  mutable spare : bytes list; (* leased frames no reader holds *)
  resident : run_reader Extmem.Deque.t; (* suspended readers, oldest first *)
  mutable active : run_reader option;
}

let traversal_open session =
  {
    t_session = session;
    lease = Extmem.Frame_arena.lease session.Session.arena ~who:"run traversal" 0;
    spare = [];
    resident = Extmem.Deque.create ();
    active = None;
  }

let take_frame t =
  Extmem.Frame_arena.take t.t_session.Session.arena
    (Extmem.Device.block_size (Extmem.Run_store.device t.t_session.Session.runs))

let push_out t = push_enc t.t_session.Session.out_stack t.t_session.Session.enc_scratch

(* The tail's bytes a reader at its position has still to read, from
   [k] on, are those of [f] (its buffer or its tail frame). *)
let unread_tail r =
  let full = Extmem.Block_reader.length r.reader - r.tail_len in
  let k = max 0 (Extmem.Block_reader.position r.reader - full) in
  match r.tail_frame with
  | _ when Extmem.Block_reader.tail_loaded r.reader -> Some (r.buffer, k)
  | Some f -> Some (f, k)
  | None -> None

(* A spilled reader is a (run, offset, tail) entry on the
   output-location stack (Figure 4, lines 13-20): the tail's unread
   bytes, or none when it is still parked below, and for a run without
   a tail the paper's (run, offset) alone; its frames become spares. *)
let spill t r =
  let enc = t.t_session.Session.enc_scratch in
  Extmem.Codec.Enc.clear enc;
  Extmem.Codec.Enc.add_varint enc r.run;
  Extmem.Codec.Enc.add_varint enc (Extmem.Block_reader.position r.reader);
  if r.tail_len > 0 then begin
    match unread_tail r with
    | Some (f, k) ->
        Extmem.Codec.Enc.add_varint enc 1;
        Extmem.Codec.Enc.add_substring enc (Bytes.unsafe_to_string f) k (r.tail_len - k)
    | None -> Extmem.Codec.Enc.add_varint enc 0
  end;
  push_out t;
  t.spare <- List.rev_append (frames r) t.spare

(* A spare frame, else one more from the budget when it has one.  The
   lease only grows: a frame a reader gives up stays leased as a spare
   for the next descent. *)
let spare_frame t =
  match t.spare with
  | f :: rest ->
      t.spare <- rest;
      Some f
  | [] -> if Extmem.Frame_arena.try_grow t.lease 1 then Some (take_frame t) else None

(* A frame for one more reader: a spare one, else the frames of the
   oldest resident reader, spilled; [None] with none resident. *)
let rec free_frame t =
  match spare_frame t with
  | Some _ as f -> f
  | None when not (Extmem.Deque.is_empty t.resident) ->
      spill t (Extmem.Deque.pop_front t.resident);
      free_frame t
  | None -> None

(* A reader's buffer frame.  With nothing to spill, the lease grows
   regardless: the output phase's plan grants the traversal a block at
   least, so this raises only on a budget held from outside. *)
let leased_frame t =
  match free_frame t with
  | Some f -> f
  | None ->
      Extmem.Frame_arena.grow t.lease 1;
      take_frame t

(* The reader's buffer takes its parked tail, the last [len] of its [n]
   bytes: the top entry, since every entry pushed after it has been
   popped. *)
let unpark t n buf =
  let c = Extmem.Ext_stack.pop_cursor t.t_session.Session.out_stack in
  let off, len = Extmem.Codec.get_string_slice c in
  Bytes.blit_string c.Extmem.Codec.buf off buf (n - len) len

(* Open a run with its [n]-byte tail: [Some s], the tail's last
   [String.length s - off] bytes, [s] from [off] on (all but those the
   reader resumes past), or [None], parked on the output-location
   stack.  It takes a buffer frame, and one more for a tail in memory,
   copied there.  With no frame for the tail and no reader resident, the
   tail is parked: every reader older than this one is spilled then, so
   every entry above the tail will be this reader's or a younger
   one's.  A tail with no byte left to read (a packed run that ends on
   a run pointer, resumed past it) takes no frame and parks nothing: the
   reader is at its end and never fills it. *)
let open_reader t run ~n tail =
  let buffer = leased_frame t in
  let unread = match tail with Some (s, off) -> String.length s - off | None -> n in
  let tail_frame = match tail with Some _ when unread > 0 -> free_frame t | _ -> None in
  let reader_tail =
    if n = 0 then None
    else
      match (tail, tail_frame) with
      | Some _, _ when unread = 0 -> Some (n, ignore)
      | Some (s, off), Some f ->
          let k = n - unread in
          Bytes.blit_string s off f k unread;
          Some (n, fun buf -> Bytes.blit f k buf k unread)
      | Some (s, off), None ->
          let enc = t.t_session.Session.enc_scratch in
          Extmem.Codec.Enc.clear enc;
          Extmem.Codec.Enc.add_substring enc s off unread;
          push_out t;
          Some (n, unpark t n)
      | None, _ -> Some (n, unpark t n)
  in
  let reader =
    Extmem.Run_store.open_run ~buffer ?tail:reader_tail t.t_session.Session.runs run
  in
  { reader; run; tail_len = n; buffer; tail_frame }

(* Enter the run a pointer names, its tail the payload's bytes from
   [off] on; the enclosing reader is suspended resident (and spilled
   first when the budget has no frame for the new one).  A reader whose
   buffer has taken its tail gives its tail frame back first. *)
let descend t run payload off =
  Option.iter
    (fun a ->
      (match a.tail_frame with
      | Some f when Extmem.Block_reader.tail_loaded a.reader ->
          a.tail_frame <- None;
          t.spare <- f :: t.spare
      | _ -> ());
      Extmem.Deque.push_back t.resident a)
    t.active;
  t.active <- Some (open_reader t run ~n:(String.length payload - off) (Some (payload, off)))

(* The active run ended: resume the reader it was entered from — the
   newest resident one, else the newest spilled one (spilled readers
   are all older than resident ones), else none: back at the root. *)
let resume t a =
  let out_stack = t.t_session.Session.out_stack in
  t.spare <- List.rev_append (frames a) t.spare;
  if not (Extmem.Deque.is_empty t.resident) then
    t.active <- Some (Extmem.Deque.pop_back t.resident)
  else if not (Extmem.Ext_stack.is_empty out_stack) then begin
    let c = Extmem.Ext_stack.pop_cursor out_stack in
    let run = Extmem.Codec.get_varint c in
    let pos = Extmem.Codec.get_varint c in
    let n = Extmem.Run_store.tail_length t.t_session.Session.runs run in
    let tail =
      if n > 0 && Extmem.Codec.get_varint c = 1 then Some (Extmem.Codec.get_string c, 0) else None
    in
    let r = open_reader t run ~n tail in
    Extmem.Block_reader.seek r.reader pos;
    t.active <- Some r
  end
  else t.active <- None

(* Return every frame; idempotent, and safe mid-traversal (a fault or
   an abandoned stream). *)
let traversal_close t =
  let give f = Extmem.Frame_arena.give t.t_session.Session.arena f in
  Option.iter (fun r -> List.iter give (frames r)) t.active;
  t.active <- None;
  Extmem.Deque.iter (fun r -> List.iter give (frames r)) t.resident;
  Extmem.Deque.clear t.resident;
  List.iter give t.spare;
  t.spare <- [];
  Extmem.Frame_arena.close_lease t.lease

(* The one output traversal: encoded entries in final document order,
   with every run pointer expanded in place by the depth-first walk of
   [traversal].  Both output paths consume it — the serializer of
   {!sort_device} ([writer]) and the event adapter of {!open_stream};
   opening it is the plan's output boundary, and its close returns the
   traversal's frames and closes [entries]. *)
let payload_stream st ~writer (entries : string Pipe.opened) =
  let session = st.session in
  Plan.output session.Session.plan ~writer;
  let tr = traversal_open session in
  let rec next () =
    match tr.active with
    | Some a -> (
        match Extmem.Block_reader.read_record a.reader with
        | Some payload -> expand payload
        | None ->
            resume tr a;
            next ())
    | None -> ( match entries.Pipe.pull () with Some payload -> expand payload | None -> None)
  and expand payload =
    if Entry.is_run_ptr payload then begin
      let run, tail_off = Entry.run_of_ptr payload in
      descend tr run payload tail_off;
      next ()
    end
    else Some payload
  in
  let pull () =
    (* cancellation checkpoint: one poll per pulled output entry *)
    session.Session.poll ();
    next ()
  in
  let close () = Fun.protect ~finally:entries.Pipe.close (fun () -> traversal_close tr) in
  { Pipe.pull; close }

(* The terminal pipeline stage: entries straight into the serialized
   document.  The close writes the end tags still open, then flushes the
   block writer before validating writer depth, so a failing pipeline
   still leaves whole blocks behind (see [Pipe.run_opened]'s exception
   discipline). *)
let serializer_sink session output =
  Pipe.sink ~mem:1 ~who:"xml writer" (fun () ->
      let bw = Extmem.Block_writer.create output in
      let w = Xmlio.Writer.to_block_writer bw in
      let ser =
        Entry.Serializer.create session.Session.config.Config.encoding session.Session.dict w
      in
      let close () =
        Entry.Serializer.finish ser;
        let extent = Extmem.Block_writer.close bw in
        Extmem.Device.set_byte_length output extent.Extmem.Extent.bytes;
        Xmlio.Writer.close w
      in
      (Entry.Serializer.entry ser, close))

(* The sorted stream as XML events ({!open_stream}): the traversal's
   payloads through the [Entry.decode]-based adapter. *)
let event_stream session (payloads : string Pipe.opened) =
  let events =
    Entry.Events.create session.Session.config.Config.encoding session.Session.dict
  in
  let pending : Xmlio.Event.t Queue.t = Queue.create () in
  let emit ev = Queue.push ev pending in
  let finished = ref false in
  let rec pull () =
    if not (Queue.is_empty pending) then Some (Queue.pop pending)
    else if !finished then None
    else begin
      (match payloads.Pipe.pull () with
      | Some payload -> Entry.Events.entry events payload emit
      | None ->
          Entry.Events.finish events emit;
          finished := true);
      pull ()
    end
  in
  { Pipe.pull; close = payloads.Pipe.close }

(* ---- driver ---- *)

(* The scan pulls the parser's packed scratch through the pipe: each
   element is consumed (encoded onto the data stack) before the next
   pull overwrites it, so the shared record is safe here.  With a
   dictionary (Dict/Packed encodings) the parser interns names as it
   reads them and the entry encoder writes the ids straight out. *)
let scan_source ?dict ~keep_whitespace input =
  Pipe.source ~mem:1 ~who:"input scan" (fun () ->
      let parser =
        Xmlio.Parser.of_reader ?dict ~keep_whitespace (Extmem.Block_reader.of_device input)
      in
      ((fun () -> Xmlio.Parser.next_packed parser), ignore))

(* Scan the input and open the root's sorted entries as a pull stream:
   the shared front end of {!sort_device} and {!open_stream}. *)
let open_sorted ~session ~ordering ~input ~io_meter =
  let config = session.Session.config in
  (* the GC counters are sampled before the root span opens, and the
     report closes the spans before it takes the GC delta, so the root
     span's interval lies inside the report's [gc] interval *)
  let gc0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let spans = Obs.Spans.create ~io:io_meter ~tracer:config.Config.tracer "sort" in
  let st =
    {
      session;
      scan_evaluable = Ordering.all_scan_evaluable ordering;
      evaluator = Ordering.Evaluator.create ordering;
      pos = 0;
      level = 0;
      n_events = 0;
      n_elements = 0;
      n_text = 0;
      max_level = 0;
      n_subtree_sorts = 0;
      n_in_memory = 0;
      n_external = 0;
      n_fragment_runs = 0;
      n_fragment_merges = 0;
      merge_passes = 0;
      top_children_loc = 0;
      top_flevel = 0;
      fuse = config.Config.root_fusion;
      root = None;
      spans;
      gc0;
      mw0;
    }
  in
  Log.info (fun m -> m "sorting phase: %a" Config.pp config);
  let dict =
    match config.Config.encoding with
    | Config.Plain -> None (* plain entries never consult the dictionary *)
    | Config.Dict | Config.Packed -> Some session.Session.dict
  in
  (try
     in_span st "input_scan" (fun () ->
         Pipe.run ~spans ~budget:session.Session.budget
           (scan_source ?dict ~keep_whitespace:config.Config.keep_whitespace input)
           (Pipe.fn_sink ~who:"sort scan" (fun (p : Xmlio.Event.packed) ->
                (* cancellation checkpoint: one poll per scan event *)
                session.Session.poll ();
                st.n_events <- st.n_events + 1;
                match p.Xmlio.Event.pkind with
                | Xmlio.Event.Pstart -> on_start st p
                | Xmlio.Event.Ptext -> on_text st p.Xmlio.Event.ptext
                | Xmlio.Event.Pend -> on_end st)))
   with e ->
     (* an error after the root closed (a second root element, say)
        finds the fused root's stream open: close it, so its
        reservations return before the caller destroys the session *)
     let bt = Printexc.get_raw_backtrace () in
     Option.iter (fun (root : string Pipe.opened) -> try root.Pipe.close () with _ -> ()) st.root;
     Printexc.raise_with_backtrace e bt);
  Log.info (fun m ->
      m "scan done: %d events, %d subtree sorts (%d in-memory, %d external), %d fragments"
        st.n_events st.n_subtree_sorts st.n_in_memory st.n_external st.n_fragment_runs);
  assert (st.level = 0);
  assert (Extmem.Ext_stack.is_empty session.Session.path_stack);
  let entries =
    match st.root with
    | Some entries ->
        (* root fusion: the root's sorted stream is open; the data stack
           is empty *)
        assert (Extmem.Ext_stack.is_empty session.Session.data_stack);
        entries
    | None ->
        (* the data stack now holds the single run pointer of the root *)
        let top = Extmem.Ext_stack.pop session.Session.data_stack in
        if not (Entry.is_run_ptr top) then
          invalid_arg "Nexsort: internal error - root did not collapse";
        let root_run, tail_off = Entry.run_of_ptr top in
        assert (Extmem.Ext_stack.is_empty session.Session.data_stack);
        (* the elastic data window may hold every block the reader and
           its tail need: back to its grant (the stack is empty) *)
        Plan.reclaim session.Session.plan;
        let n = String.length top - tail_off in
        let tail = (n, fun buf -> Bytes.blit_string top tail_off buf 0 n) in
        Pipe.open_source ~spans ~budget:session.Session.budget
          (Pipe.of_run ~who:"root run" ~tail session.Session.runs root_run)
  in
  (st, entries)

let build_report (st : state) ~input_io ~output_io ~t0 =
  let session = st.session in
  let spans = Obs.Spans.close st.spans in
  let mw1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let gc =
    {
      gc_minor_words = mw1 -. st.mw0;
      gc_major_words = g1.Gc.major_words -. st.gc0.Gc.major_words;
      gc_promoted_words = g1.Gc.promoted_words -. st.gc0.Gc.promoted_words;
      gc_minor_collections = g1.Gc.minor_collections - st.gc0.Gc.minor_collections;
      gc_major_collections = g1.Gc.major_collections - st.gc0.Gc.major_collections;
    }
  in
  (* surface the same GC deltas on the trace timeline, so nextrace
     summaries show allocation pressure next to span self-times *)
  let tracer = session.Session.config.Config.tracer in
  if Obs.Tracer.enabled tracer then begin
    let count name v = Obs.Tracer.counter tracer (Obs.Tracer.intern tracer name) v in
    count "gc.minor_words" (int_of_float gc.gc_minor_words);
    count "gc.major_words" (int_of_float gc.gc_major_words);
    count "gc.promoted_words" (int_of_float gc.gc_promoted_words);
    count "gc.minor_collections" gc.gc_minor_collections;
    count "gc.major_collections" gc.gc_major_collections
  end;
  {
    events = st.n_events;
    elements = st.n_elements;
    text_nodes = st.n_text;
    height = st.max_level;
    subtree_sorts = st.n_subtree_sorts;
    in_memory_sorts = st.n_in_memory;
    external_sorts = st.n_external;
    fragment_runs = st.n_fragment_runs;
    fragment_merges = st.n_fragment_merges;
    merge_passes = st.merge_passes;
    runs_created = Extmem.Run_store.run_count session.Session.runs;
    run_blocks = Extmem.Run_store.total_run_blocks session.Session.runs;
    run_inline_bytes = Extmem.Run_store.inline_bytes session.Session.runs;
    run_peak_live_blocks =
      Extmem.Device.peak_live_blocks (Extmem.Run_store.device session.Session.runs);
    temp_peak_live_blocks = Extmem.Device.peak_live_blocks session.Session.temp;
    input_io;
    output_io;
    breakdown = Session.io_breakdown session;
    total_io =
      Extmem.Io_stats.add (Extmem.Io_stats.add input_io output_io) (Session.total_io session);
    wall_seconds = Unix.gettimeofday () -. t0;
    gc;
    spans;
    metrics = Obs.Registry.to_json session.Session.registry;
    arena = Extmem.Frame_arena.owners session.Session.arena;
    plan = Plan.phases session.Session.plan;
  }

(* The shared setup of {!sort_device} and {!open_stream}: validate the
   ordering, then scan.  The session is the caller's to destroy from the
   moment this returns; if anything here raises — the ordering check
   included — it is destroyed before the exception leaves.  [output] is
   the device the caller will write, metered into the phase spans. *)
let open_session ~session ~ordering ~input ?output () =
  let t0 = Unix.gettimeofday () in
  (* the span meter: cumulative I/O over every device the sort touches,
     so phase deltas attribute all of it *)
  let devices = input :: Option.to_list output in
  let io_meter () =
    List.fold_left
      (fun acc d -> Extmem.Io_stats.add acc (Extmem.Io_stats.snapshot (Extmem.Device.stats d)))
      (Session.total_io session) devices
  in
  match
    Config.validate_ordering session.Session.config ordering;
    open_sorted ~session ~ordering ~input ~io_meter
  with
  | st, entries -> (st, entries, t0)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Session.destroy session;
      Printexc.raise_with_backtrace e bt

let sort_device ~session ~ordering ~input ~output () =
  let st, entries, t0 = open_session ~session ~ordering ~input ~output () in
  (* the session is destroyed on every exit path — also on a fault or
     budget exhaustion mid-sort — so its windows return to the budget
     and the registered teardown probes can verify nothing leaked *)
  Fun.protect
    ~finally:(fun () -> Session.destroy session)
    (fun () ->
      in_span st "output" (fun () ->
          Pipe.run_opened ~spans:st.spans ~budget:session.Session.budget
            (payload_stream st ~writer:true entries) (serializer_sink session output));
      build_report st
        ~input_io:(Extmem.Io_stats.snapshot (Extmem.Device.stats input))
        ~output_io:(Extmem.Io_stats.snapshot (Extmem.Device.stats output))
        ~t0)

(* ---- event-stream front end (cross-tool fusion) ---- *)

type stream = {
  s_st : state;
  s_input : Extmem.Device.t;
  s_events : unit -> Xmlio.Event.t option;
  s_close : unit -> unit;
  s_t0 : float;
  mutable s_report : report option;
}

let open_stream ~session ~ordering ~input () =
  let st, entries, t0 = open_session ~session ~ordering ~input () in
  let events = event_stream session (payload_stream st ~writer:false entries) in
  {
    s_st = st;
    s_input = input;
    s_events = events.Pipe.pull;
    s_close = events.Pipe.close;
    s_t0 = t0;
    s_report = None;
  }

let stream_events s = s.s_events ()

let stream_finish s =
  match s.s_report with
  | Some r -> r
  | None ->
      let r =
        Fun.protect
          ~finally:(fun () -> Session.destroy s.s_st.session)
          (fun () ->
            s.s_close ();
            build_report s.s_st
              ~input_io:(Extmem.Io_stats.snapshot (Extmem.Device.stats s.s_input))
              ~output_io:(Extmem.Io_stats.create ())
              ~t0:s.s_t0)
      in
      s.s_report <- Some r;
      r

(* ---- machine-readable report (--metrics) ---- *)

let config_json (c : Config.t) =
  let open Obs.Json in
  Obj
    [
      ("block_size", Int c.Config.block_size);
      ("memory_blocks", Int c.Config.memory_blocks);
      ("threshold", Int c.Config.threshold);
      ("depth_limit", (match c.Config.depth_limit with Some d -> Int d | None -> Null));
      ("degeneration", Bool c.Config.degeneration);
      ("root_fusion", Bool c.Config.root_fusion);
      ( "encoding",
        Str
          (match c.Config.encoding with
          | Config.Plain -> "plain"
          | Config.Dict -> "dict"
          | Config.Packed -> "packed") );
      ("data_stack_blocks", Int c.Config.data_stack_blocks);
      ("path_stack_blocks", Int c.Config.path_stack_blocks);
      ("keep_whitespace", Bool c.Config.keep_whitespace);
      ("device", Str (Extmem.Device_spec.to_string c.Config.device));
    ]

let owner_stats_json (s : Extmem.Frame_arena.owner_stats) =
  Obs.Json.Obj
    [
      ("held", Obs.Json.Int s.Extmem.Frame_arena.held);
      ("peak", Obs.Json.Int s.Extmem.Frame_arena.peak);
    ]

let metrics_report ?(tool = "nexsort") ~config r =
  let component name =
    match List.assoc_opt name r.breakdown with
    | Some s -> s
    | None -> Extmem.Io_stats.create ()
  in
  (* the paper's §4.2 phase attribution: each phase owns a device *)
  let stack_paging =
    Extmem.Io_stats.add
      (Extmem.Io_stats.add (component "data stack") (component "path stack"))
      (component "output location stack")
  in
  let rep = Obs.Report.create ~tool in
  Obs.Report.add rep "config" (config_json config);
  Obs.Report.add rep "counts"
    (Obs.Json.Obj
       [
         ("events", Obs.Json.Int r.events);
         ("elements", Obs.Json.Int r.elements);
         ("text_nodes", Obs.Json.Int r.text_nodes);
         ("height", Obs.Json.Int r.height);
         ("subtree_sorts", Obs.Json.Int r.subtree_sorts);
         ("in_memory_sorts", Obs.Json.Int r.in_memory_sorts);
         ("external_sorts", Obs.Json.Int r.external_sorts);
         ("fragment_runs", Obs.Json.Int r.fragment_runs);
         ("fragment_merges", Obs.Json.Int r.fragment_merges);
         ("merge_passes", Obs.Json.Int r.merge_passes);
         ("runs_created", Obs.Json.Int r.runs_created);
         ("run_blocks", Obs.Json.Int r.run_blocks);
       ]);
  Obs.Report.add rep "io"
    (Obs.Json.Obj
       [
         ("input", Obs.Json.io_stats r.input_io);
         ("subtree_sorts", Obs.Json.io_stats (component "scratch"));
         ("stack_paging", Obs.Json.io_stats stack_paging);
         ("runs", Obs.Json.io_stats (component "runs"));
         ("output", Obs.Json.io_stats r.output_io);
         ("total", Obs.Json.io_stats r.total_io);
         ( "components",
           Obs.Json.Obj (List.map (fun (n, s) -> (n, Obs.Json.io_stats s)) r.breakdown) );
       ]);
  Obs.Report.add rep "arena"
    (Obs.Json.Obj (List.map (fun (who, s) -> (who, owner_stats_json s)) r.arena));
  (* the memory plan (schema v8): each phase's grants, of its last entry *)
  let open Obs.Json in
  let grant (g : Plan.grant) =
    (g.who, Obj [ ("min", Int g.min); ("max", Int g.max); ("granted", Int g.granted) ])
  in
  Obs.Report.add rep "plan"
    (Obj
       (List.map
          (fun (phase, n, grants) ->
            (phase, Obj [ ("entries", Int n); ("grants", Obj (List.map grant grants)) ]))
          r.plan));
  (* allocation behaviour of the whole sort (schema v2): words are OCaml
     words allocated (minor = all allocation, major includes promotions),
     the per-event rate is the record path's headline number *)
  Obs.Report.add rep "gc"
    (Obs.Json.Obj
       [
         ("minor_words", Obs.Json.Float r.gc.gc_minor_words);
         ("major_words", Obs.Json.Float r.gc.gc_major_words);
         ("promoted_words", Obs.Json.Float r.gc.gc_promoted_words);
         ("minor_collections", Obs.Json.Int r.gc.gc_minor_collections);
         ("major_collections", Obs.Json.Int r.gc.gc_major_collections);
         ( "minor_words_per_event",
           Obs.Json.Float
             (if r.events = 0 then 0. else r.gc.gc_minor_words /. float_of_int r.events) );
       ]);
  Obs.Report.add rep "phases" (Obs.Span.to_json r.spans);
  Obs.Report.add rep "metrics" r.metrics;
  Obs.Report.add rep "timing"
    (Obs.Json.Obj [ ("wall_s", Obs.Json.Float r.wall_seconds) ]);
  rep

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>events=%d (elements=%d, text=%d), height=%d@,\
     subtree sorts=%d (in-memory=%d, external=%d), fragments=%d (merges=%d)@,\
     runs=%d (%d blocks written, %d bytes inline, at most %d live at once)@,\
     scratch: %d blocks written, at most %d live at once@,\
     io: input=%a output=%a total=%a@,\
     wall=%.3fs@]"
    r.events r.elements r.text_nodes r.height r.subtree_sorts r.in_memory_sorts r.external_sorts
    r.fragment_runs r.fragment_merges r.runs_created r.run_blocks r.run_inline_bytes
    r.run_peak_live_blocks
    (List.assoc "scratch" r.breakdown).Extmem.Io_stats.writes
    r.temp_peak_live_blocks Extmem.Io_stats.pp r.input_io
    Extmem.Io_stats.pp r.output_io Extmem.Io_stats.pp r.total_io r.wall_seconds
