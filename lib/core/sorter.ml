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
  runs_created : int;
  run_blocks : int;
  input_io : Extmem.Io_stats.t;
  output_io : Extmem.Io_stats.t;
  breakdown : (string * Extmem.Io_stats.t) list;
  total_io : Extmem.Io_stats.t;
  simulated_ms : float;
  wall_seconds : float;
  gc : gc_stats;  (** allocation/collection delta over the whole sort *)
  spans : Obs.Span.t;
  metrics : Obs.Json.t;
  arena : (string * Extmem.Frame_arena.owner_stats) list;
  jobs : int;
  workers : Sort_pool.worker_stats list;
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

let encode_frame f =
  let buf = Buffer.create 32 in
  Extmem.Codec.put_varint buf f.loc;
  Extmem.Codec.put_varint buf f.children_loc;
  Extmem.Codec.put_varint buf f.fpos;
  Extmem.Codec.put_varint buf f.flevel;
  Key.encode_opt buf f.fkey;
  Extmem.Codec.put_varint buf f.nfrags;
  Buffer.contents buf

let decode_frame s =
  let c = Extmem.Codec.cursor s in
  let loc = Extmem.Codec.get_varint c in
  let children_loc = Extmem.Codec.get_varint c in
  let fpos = Extmem.Codec.get_varint c in
  let flevel = Extmem.Codec.get_varint c in
  let fkey = Key.decode_opt c in
  let nfrags = Extmem.Codec.get_varint c in
  { loc; children_loc; fpos; flevel; fkey; nfrags }

let encode_frag_id id =
  let buf = Buffer.create 4 in
  Extmem.Codec.put_varint buf id;
  Buffer.contents buf

let decode_frag_id s = Extmem.Codec.get_varint (Extmem.Codec.cursor s)

(* ---- output-location stack entries (Figure 4, lines 13-20) ---- *)

let encode_out_loc run off =
  let buf = Buffer.create 8 in
  Extmem.Codec.put_varint buf run;
  Extmem.Codec.put_varint buf off;
  Buffer.contents buf

let decode_out_loc s =
  let c = Extmem.Codec.cursor s in
  let run = Extmem.Codec.get_varint c in
  let off = Extmem.Codec.get_varint c in
  (run, off)

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
  (* the top path-stack frame's [children_loc] and [flevel], so
     degeneration need not read the path stack after every event; the
     path stack stays the only store of frames *)
  mutable top_children_loc : int;
  mutable top_flevel : int;
  (* root fusion: when [fuse], the root's collapse opens its final
     sort/merge as a pull stream here instead of materialising the root
     run; the output phase consumes it *)
  fuse : bool;
  mutable root : ((unit -> string option) * (unit -> unit)) option;
  spans : Obs.Spans.t;
  gc0 : Gc.stat;  (* GC counters when the sort opened (quick_stat) *)
  mw0 : float;  (* Gc.minor_words at open: exact, unlike quick_stat's
                   minor_words which only refreshes at collections *)
}

let in_span st name f = Obs.Spans.with_span st.spans name f

let push_data st entry =
  Extmem.Ext_stack.push st.session.Session.data_stack (Session.encode_entry st.session entry)

let push_payload st payload = Extmem.Ext_stack.push st.session.Session.data_stack payload

(* End entries carry no names, so they encode without touching the
   dictionary — straight through the session scratch encoder *)
let push_end st ~level ~pos ~key =
  push_payload st (Entry.encode_end_to st.session.Session.enc_scratch ~level ~pos ~key)

let degeneration st = st.session.Session.config.Config.degeneration

let cache_top st f =
  st.top_children_loc <- f.children_loc;
  st.top_flevel <- f.flevel

let push_frame st f =
  Extmem.Ext_stack.push st.session.Session.path_stack (encode_frame f);
  cache_top st f

let pop_frame st = decode_frame (Extmem.Ext_stack.pop st.session.Session.path_stack)

(* Pop an element's frame and then its fragment ids, which come off
   newest first; consing them back yields creation order.  The parent's
   frame is now on top: re-read it into the cache when degeneration will
   consult it (without degeneration the path stack is left alone). *)
let pop_element st =
  let path = st.session.Session.path_stack in
  let frame = pop_frame st in
  let rec ids n acc =
    if n = 0 then acc else ids (n - 1) (decode_frag_id (Extmem.Ext_stack.pop path) :: acc)
  in
  let frags = ids frame.nfrags [] in
  if degeneration st && not (Extmem.Ext_stack.is_empty path) then
    cache_top st (decode_frame (Extmem.Ext_stack.top path));
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

(* Same range as raw encoded payloads (for handoff to worker domains). *)
let collect_payloads st ~from_ =
  let acc = ref [] in
  Extmem.Ext_stack.iter_entries_from st.session.Session.data_stack ~pos:from_ (fun payload ->
      acc := payload :: !acc);
  List.rev !acc

(* ---- graceful degeneration (§3.2) ----

   When the children accumulated for the innermost open element fill the
   sorting arena, sort them in memory now and park them as an incomplete
   sorted run, exactly like external merge sort's initial run creation. *)
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
    if region >= Session.arena_bytes st.session && region > 0 then begin
      in_span st "fragment_write" @@ fun () ->
      let views = collect_views st ~from_:children_loc in
      let forest =
        Subtree_sort.sort_forest ~depth_limit:(depth_limit st) (Subtree_sort.build_forest views)
      in
      let frag = Subtree_sort.write_fragment st.session forest in
      Log.debug (fun m ->
          m "degeneration: level %d filled the arena, fragment run %d (%d bytes)" st.top_flevel
            frag region);
      Extmem.Ext_stack.truncate_to st.session.Session.data_stack children_loc;
      (* the new id goes just below the frame: O(1) path-stack work *)
      let top = pop_frame st in
      Extmem.Ext_stack.push path (encode_frag_id frag);
      push_frame st { top with nfrags = top.nfrags + 1 };
      st.n_fragment_runs <- st.n_fragment_runs + 1
    end
    end
  end

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

(* Sort the complete subtree beginning at [frame.loc] and replace it by a
   run pointer (Figure 4, lines 10-12). *)
let collapse st frame resolved_key =
  in_span st "subtree_sorts" @@ fun () ->
  let data = st.session.Session.data_stack in
  let size = Extmem.Ext_stack.length data - frame.loc in
  let run =
    if size <= Session.arena_bytes st.session then begin
      st.n_in_memory <- st.n_in_memory + 1;
      Log.debug (fun m ->
          m "collapse: level %d pos %d, %d bytes, in-memory sort" frame.flevel frame.fpos size);
      match st.session.Session.pool with
      | Some (pool, view) ->
          (* parallel path: claim the run id here — the same sequence
             point where the single-threaded path registers the run — and
             hand the pure sort (over the raw payloads) to a worker *)
          let run = Extmem.Run_store.reserve st.session.Session.runs in
          Sort_pool.submit_sort pool view ~run (collect_payloads st ~from_:frame.loc);
          run
      | None -> Subtree_sort.sort_in_memory st.session (collect_views st ~from_:frame.loc)
    end
    else begin
      st.n_external <- st.n_external + 1;
      match st.session.Session.pool with
      | Some (pool, view) ->
          (* offloaded external sort: mirror the single-threaded sequence
             exactly — reclaim, drain the scan input with the same stack
             mechanics (a reverse scan pops; a forward scan reads), then
             hand the pure key-path sort to a worker along with the very
             arena size the inline sort would have leased, so run
             structure and scratch I/O match the [--jobs 1] bill *)
          Session.reclaim st.session;
          let scan, payloads =
            if st.scan_evaluable then (`Forward, collect_payloads st ~from_:frame.loc)
            else begin
              let acc = ref [] in
              while Extmem.Ext_stack.length data > frame.loc do
                acc := Extmem.Ext_stack.pop data :: !acc
              done;
              (`Reverse, List.rev !acc (* pop order: reverse document order *))
            end
          in
          let arena_blocks =
            Extmem.Memory_budget.available_blocks st.session.Session.budget
          in
          Log.debug (fun m ->
              m
                "collapse: level %d pos %d, %d bytes > arena, external key-path sort \
                 offloaded (%s scan, %d-block arena)"
                frame.flevel frame.fpos size
                (match scan with `Forward -> "forward" | `Reverse -> "reverse")
                arena_blocks);
          let run = Extmem.Run_store.reserve st.session.Session.runs in
          Sort_pool.submit_external pool view ~run ~scan ~arena_blocks payloads;
          run
      | None ->
          let scan, input = external_scan_input st frame in
          Log.debug (fun m ->
              m "collapse: level %d pos %d, %d bytes > arena, external key-path sort (%s scan)"
                frame.flevel frame.fpos size
                (match scan with `Forward -> "forward" | `Reverse -> "reverse"));
          let id, _stats = Subtree_sort.sort_external st.session ~input ~scan in
          id
    end
  in
  st.n_subtree_sorts <- st.n_subtree_sorts + 1;
  Extmem.Ext_stack.truncate_to data frame.loc;
  push_data st
    (Entry.Run_ptr { level = frame.flevel; pos = frame.fpos; key = resolved_key; run; bytes = size })

(* Depth-limited sorting, d_s = d+1 case (§3.2): "no sorting is needed but
   the subtree is still written to disk, ensuring that we do not carry
   large subtrees along".  The subtree below the limit contains no run
   pointers (nothing deeper ever collapses), so it is copied verbatim —
   streaming, with no memory requirement. *)
let collapse_copy st frame resolved_key =
  in_span st "subtree_copy" @@ fun () ->
  let data = st.session.Session.data_stack in
  let size = Extmem.Ext_stack.length data - frame.loc in
  Log.debug (fun m ->
      m "collapse: level %d pos %d, %d bytes, verbatim copy (depth limit)" frame.flevel
        frame.fpos size);
  let run =
    match st.session.Session.pool with
    | Some (pool, view) ->
        let run = Extmem.Run_store.reserve st.session.Session.runs in
        Sort_pool.submit_copy pool view ~run (collect_payloads st ~from_:frame.loc);
        run
    | None ->
        let w = Extmem.Run_store.begin_run st.session.Session.runs in
        Extmem.Ext_stack.iter_entries_from data ~pos:frame.loc (fun payload ->
            Extmem.Block_writer.write_record w payload);
        Extmem.Run_store.finish_run st.session.Session.runs w
  in
  st.n_subtree_sorts <- st.n_subtree_sorts + 1;
  Extmem.Ext_stack.truncate_to data frame.loc;
  push_data st
    (Entry.Run_ptr { level = frame.flevel; pos = frame.fpos; key = resolved_key; run; bytes = size })

(* Root fusion: the root's final sort/merge is opened as a pull stream
   (saves writing and re-reading the whole document once); the output
   phase pulls it straight into the XML writer.  The stream is built
   before truncating the stack — run formation consumes the stack here,
   but the final merge is deferred to the consumer. *)
let open_root_source st frame frags =
  in_span st "root_sort" @@ fun () ->
  let data = st.session.Session.data_stack in
  let result =
    if frags <> [] then begin
      let tail = collect_views st ~from_:frame.children_loc in
      let fragments =
        if tail = [] then frags
        else begin
          let forest =
            Subtree_sort.sort_forest ~depth_limit:(depth_limit st) (Subtree_sort.build_forest tail)
          in
          st.n_fragment_runs <- st.n_fragment_runs + 1;
          frags @ [ Subtree_sort.write_fragment st.session forest ]
        end
      in
      let start_view =
        match Extmem.Ext_stack.cursor_from data ~pos:frame.loc () with
        | Some payload -> Session.view_entry st.session payload
        | None -> assert false
      in
      st.n_fragment_merges <- st.n_fragment_merges + 1;
      Subtree_sort.merge_fragments_source st.session ~start_view ~fragments
    end
    else begin
      if not (packed st) then
        push_end st ~level:frame.flevel ~pos:frame.fpos ~key:(Some Key.Null);
      let size = Extmem.Ext_stack.length data - frame.loc in
      if size <= Session.arena_bytes st.session then begin
        st.n_in_memory <- st.n_in_memory + 1;
        ( Subtree_sort.sort_in_memory_source st.session (collect_views st ~from_:frame.loc),
          ignore )
      end
      else begin
        st.n_external <- st.n_external + 1;
        let scan, input = external_scan_input st frame in
        let s = Subtree_sort.sort_external_source st.session ~input ~scan in
        (s.Subtree_sort.pull, s.Subtree_sort.close)
      end
    end
  in
  st.n_subtree_sorts <- st.n_subtree_sorts + 1;
  Extmem.Ext_stack.truncate_to data frame.loc;
  result

(* Merge an element's fragments (plus its unsorted tail children) into its
   complete run. *)
let collapse_fragments st frame frags resolved_key =
  in_span st "fragment_merge" @@ fun () ->
  let data = st.session.Session.data_stack in
  let size = Extmem.Ext_stack.length data - frame.loc in
  let tail = collect_views st ~from_:frame.children_loc in
  let fragments =
    if tail = [] then frags
    else begin
      let forest =
        Subtree_sort.sort_forest ~depth_limit:(depth_limit st) (Subtree_sort.build_forest tail)
      in
      st.n_fragment_runs <- st.n_fragment_runs + 1;
      frags @ [ Subtree_sort.write_fragment st.session forest ]
    end
  in
  (* the element's own Start entry is the first entry at frame.loc *)
  let start_view =
    match Extmem.Ext_stack.cursor_from data ~pos:frame.loc () with
    | Some payload -> Session.view_entry st.session payload
    | None -> assert false
  in
  let run = Subtree_sort.merge_fragments st.session ~start_view ~fragments in
  st.n_fragment_merges <- st.n_fragment_merges + 1;
  st.n_subtree_sorts <- st.n_subtree_sorts + 1;
  Extmem.Ext_stack.truncate_to data frame.loc;
  push_data st
    (Entry.Run_ptr { level = frame.flevel; pos = frame.fpos; key = resolved_key; run; bytes = size })

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
  push_payload st
    (Entry.encode_start_of_packed st.session.Session.config.Config.encoding
       st.session.Session.dict st.session.Session.enc_scratch ~level:st.level ~pos:st.pos ~key p);
  push_frame st
    {
      loc;
      children_loc = Extmem.Ext_stack.length st.session.Session.data_stack;
      fpos = st.pos;
      flevel = st.level;
      fkey = key;
      nfrags = 0;
    };
  maybe_degenerate st

let on_text st content =
  st.pos <- st.pos + 1;
  st.n_text <- st.n_text + 1;
  Ordering.Evaluator.on_text st.evaluator content;
  push_payload st
    (Entry.encode_text_to st.session.Session.enc_scratch ~level:(st.level + 1) ~pos:st.pos
       content);
  maybe_degenerate st

let on_end st =
  let key_end = Ordering.Evaluator.on_end st.evaluator in
  let frame, frags = pop_element st in
  st.level <- st.level - 1;
  let resolved_key =
    match frame.fkey with
    | Some k -> k
    | None -> Option.value key_end ~default:Key.Null
  in
  if st.fuse && frame.flevel = 1 then st.root <- Some (open_root_source st frame frags)
  else begin
      if frags <> [] then collapse_fragments st frame frags resolved_key
      else begin
        if not (packed st) then
          push_end st ~level:frame.flevel ~pos:frame.fpos ~key:(Some resolved_key);
        let size = Extmem.Ext_stack.length st.session.Session.data_stack - frame.loc in
        let is_root = frame.flevel = 1 in
        let depth_ok =
          match depth_limit st with
          | None -> true
          | Some d -> frame.flevel <= d + 1
        in
        let threshold = st.session.Session.config.Config.threshold in
        let at_limit =
          match depth_limit st with
          | Some d -> frame.flevel = d + 1
          | None -> false
        in
        if (size >= threshold || is_root) && depth_ok then
          if at_limit && not is_root then collapse_copy st frame resolved_key
          else collapse st frame resolved_key
      end;
      (* the parent's children region just grew (run pointer or uncollapsed
         subtree): it may now fill the arena *)
      maybe_degenerate st
  end

(* ---- output phase (Figure 4, lines 13-21) ---- *)

(* Event expansion: encoded entries in final document order become XML
   events.  Run pointers trigger the depth-first traversal of the
   pointed run in place, driven by the external output-location stack;
   End events are synthesized from level transitions via the open-tag
   recovery stack of §3.2 — O(height) internal state.  This is the
   generic transform behind both the fused and the materialised output
   path, and behind {!stream_events}. *)
let event_stream st entries =
  let session = st.session in
  let out_stack = session.Session.out_stack in
  let pending : Xmlio.Event.t Queue.t = Queue.create () in
  let opens : (string * int) Extmem.Vec.t = Extmem.Vec.create () in
  let reader = ref None in (* (block reader, its run id) during run DFS *)
  let finished = ref false in
  let close_to level =
    while Extmem.Vec.length opens > 0 && snd (Extmem.Vec.top opens) >= level do
      let name, _ = Extmem.Vec.pop opens in
      Queue.push (Xmlio.Event.End name) pending
    done
  in
  let handle payload =
    let e = Session.decode_entry session payload in
    close_to (Entry.level e);
    match e with
    | Entry.Start { name; attrs; level; _ } ->
        Queue.push (Xmlio.Event.Start (name, attrs)) pending;
        Extmem.Vec.push opens (name, level)
    | Entry.End _ -> () (* already closed by close_to *)
    | Entry.Text { content; _ } -> Queue.push (Xmlio.Event.Text content) pending
    | Entry.Run_ptr { run; _ } ->
        (* descend; remember where to resume in the enclosing run *)
        (match !reader with
        | Some (r, cur) ->
            Extmem.Ext_stack.push out_stack
              (encode_out_loc cur (Extmem.Block_reader.position r))
        | None -> ());
        reader := Some (Extmem.Run_store.open_run session.Session.runs run, run)
  in
  let rec next () =
    if not (Queue.is_empty pending) then Some (Queue.pop pending)
    else if !finished then None
    else begin
      (match !reader with
      | Some (r, _) -> (
          match Extmem.Block_reader.read_record r with
          | Some payload -> handle payload
          | None ->
              if Extmem.Ext_stack.is_empty out_stack then reader := None
              else begin
                let run, off = decode_out_loc (Extmem.Ext_stack.pop out_stack) in
                let r = Extmem.Run_store.open_run session.Session.runs run in
                Extmem.Block_reader.seek r off;
                reader := Some (r, run)
              end)
      | None -> (
          match entries () with
          | Some payload -> handle payload
          | None ->
              close_to 1;
              finished := true));
      next ()
    end
  in
  fun () ->
    (* cancellation checkpoint: one poll per pulled output event *)
    session.Session.poll ();
    next ()

(* The terminal pipeline stage: XML events into the serialized document.
   The close flushes the block writer before validating writer depth, so
   a failing pipeline still leaves whole blocks behind (see
   [Pipe.run_opened]'s exception discipline). *)
let writer_sink output =
  Pipe.sink ~mem:1 ~who:"xml writer" (fun () ->
      let bw = Extmem.Block_writer.create output in
      let w = Xmlio.Writer.to_block_writer bw in
      let push ev = Xmlio.Writer.event w ev in
      let close () =
        let extent = Extmem.Block_writer.close bw in
        Extmem.Device.set_byte_length output extent.Extmem.Extent.bytes;
        Xmlio.Writer.close w
      in
      (push, close))

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
let open_sorted ~session ~ordering ~input ~io_meter ~sim_meter =
  let config = session.Session.config in
  let spans =
    Obs.Spans.create ~io:io_meter ~sim_ms:sim_meter ~tracer:config.Config.tracer "sort"
  in
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
      top_children_loc = 0;
      top_flevel = 0;
      fuse = config.Config.root_fusion;
      root = None;
      spans;
      gc0 = Gc.quick_stat ();
      mw0 = Gc.minor_words ();
    }
  in
  Log.info (fun m -> m "sorting phase: %a" Config.pp config);
  let dict =
    match config.Config.encoding with
    | Config.Plain -> None (* plain entries never consult the dictionary *)
    | Config.Dict | Config.Packed -> Some session.Session.dict
  in
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
             | Xmlio.Event.Pend -> on_end st)));
  Log.info (fun m ->
      m "scan done: %d events, %d subtree sorts (%d in-memory, %d external), %d fragments"
        st.n_events st.n_subtree_sorts st.n_in_memory st.n_external st.n_fragment_runs);
  assert (st.level = 0);
  assert (Extmem.Ext_stack.is_empty session.Session.path_stack);
  (* the one barrier of the parallel path: every submitted subtree sort
     is finished and installed before anything dereferences a run *)
  Session.sync session;
  (* any blocks the data-stack window borrowed are idle now *)
  Session.reclaim session;
  let entries =
    match st.root with
    | Some (pull, close) ->
        (* root fusion: the root collapse opened its final merge as a
           stream; the data stack is empty *)
        assert (Extmem.Ext_stack.is_empty session.Session.data_stack);
        { Pipe.pull; close }
    | None ->
        (* the data stack now holds the single run pointer of the root *)
        let root_run =
          match
            Session.decode_entry session (Extmem.Ext_stack.pop session.Session.data_stack)
          with
          | Entry.Run_ptr { run; _ } -> run
          | Entry.Start _ | Entry.End _ | Entry.Text _ ->
              invalid_arg "Nexsort: internal error - root did not collapse"
        in
        assert (Extmem.Ext_stack.is_empty session.Session.data_stack);
        Pipe.open_source ~spans ~budget:session.Session.budget
          (Pipe.of_run ~who:"root run" session.Session.runs root_run)
  in
  (st, entries)

let build_report (st : state) ~input_io ~output_io ~extra_sim ~t0 =
  let session = st.session in
  let g1 = Gc.quick_stat () in
  let gc =
    {
      gc_minor_words = Gc.minor_words () -. st.mw0;
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
    runs_created = Extmem.Run_store.run_count session.Session.runs;
    run_blocks = Extmem.Run_store.total_run_blocks session.Session.runs;
    input_io;
    output_io;
    breakdown = Session.io_breakdown session;
    total_io =
      Extmem.Io_stats.add (Extmem.Io_stats.add input_io output_io) (Session.total_io session);
    simulated_ms = Session.simulated_ms session +. extra_sim;
    wall_seconds = Unix.gettimeofday () -. t0;
    gc;
    spans = Obs.Spans.close st.spans;
    metrics = Obs.Registry.to_json session.Session.registry;
    arena = Extmem.Frame_arena.owners session.Session.arena;
    jobs = session.Session.config.Config.jobs;
    workers =
      (match session.Session.pool with
      | Some (_, v) -> Sort_pool.worker_stats v
      | None -> []);
  }

(* The shared setup of {!sort_device} and {!open_stream}: validate the
   ordering, then scan.  The session is the caller's to destroy from the
   moment this returns; if anything here raises — the ordering check
   included — it is destroyed before the exception leaves.  [output] is
   the device the caller will write, metered into the phase spans. *)
let open_session ~session ~ordering ~input ?output () =
  let t0 = Unix.gettimeofday () in
  (* span meters: cumulative I/O and simulated time over every device the
     sort touches, so phase deltas attribute all of it *)
  let devices = input :: Option.to_list output in
  let io_meter () =
    List.fold_left
      (fun acc d -> Extmem.Io_stats.add acc (Extmem.Io_stats.snapshot (Extmem.Device.stats d)))
      (Session.total_io session) devices
  in
  let sim_meter () =
    List.fold_left
      (fun acc d -> acc +. Extmem.Device.simulated_ms d)
      (Session.simulated_ms session) devices
  in
  match
    Config.validate_ordering session.Session.config ordering;
    open_sorted ~session ~ordering ~input ~io_meter ~sim_meter
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
            { Pipe.pull = event_stream st entries.Pipe.pull; close = entries.Pipe.close }
            (writer_sink output));
      build_report st
        ~input_io:(Extmem.Io_stats.snapshot (Extmem.Device.stats input))
        ~output_io:(Extmem.Io_stats.snapshot (Extmem.Device.stats output))
        ~extra_sim:(Extmem.Device.simulated_ms input +. Extmem.Device.simulated_ms output)
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
  {
    s_st = st;
    s_input = input;
    s_events = event_stream st entries.Pipe.pull;
    s_close = entries.Pipe.close;
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
              ~extra_sim:(Extmem.Device.simulated_ms s.s_input)
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
      ("jobs", Int c.Config.jobs);
    ]

let owner_stats_json (s : Extmem.Frame_arena.owner_stats) =
  Obs.Json.Obj
    [
      ("held", Obs.Json.Int s.Extmem.Frame_arena.held);
      ("peak", Obs.Json.Int s.Extmem.Frame_arena.peak);
      ("hits", Obs.Json.Int s.Extmem.Frame_arena.hits);
      ("misses", Obs.Json.Int s.Extmem.Frame_arena.misses);
      ("evictions", Obs.Json.Int s.Extmem.Frame_arena.evictions);
      ("writebacks", Obs.Json.Int s.Extmem.Frame_arena.writebacks);
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
  (* the NEXSORT pipeline is purely streaming — its arena owners are
     leases, not caches, so these totals are zero — but the section is
     always present so report consumers see a stable schema; paged
     algorithms (indexed merge) fill it in *)
  let tot =
    List.fold_left
      (fun (h, m, e, w) (_, (s : Extmem.Frame_arena.owner_stats)) ->
        (h + s.hits, m + s.misses, e + s.evictions, w + s.writebacks))
      (0, 0, 0, 0) r.arena
  in
  let hits, misses, evictions, writebacks = tot in
  Obs.Report.add rep "pager"
    (Obs.Json.Obj
       [
         ("hits", Obs.Json.Int hits);
         ("misses", Obs.Json.Int misses);
         ("evictions", Obs.Json.Int evictions);
         ("writebacks", Obs.Json.Int writebacks);
       ]);
  Obs.Report.add rep "arena"
    (Obs.Json.Obj (List.map (fun (who, s) -> (who, owner_stats_json s)) r.arena));
  (* per-worker section of the parallel path; always present (with an
     empty pool at jobs=1) so the schema is stable *)
  Obs.Report.add rep "workers"
    (Obs.Json.Obj
       [
         ("jobs", Obs.Json.Int r.jobs);
         ( "pool",
           Obs.Json.Obj
             (List.map
                (fun (ws : Sort_pool.worker_stats) ->
                  ( Printf.sprintf "worker%d" ws.Sort_pool.w_index,
                    Obs.Json.Obj
                      [
                        ("tasks", Obs.Json.Int ws.Sort_pool.w_tasks);
                        ("entries", Obs.Json.Int ws.Sort_pool.w_entries);
                        ("io", Obs.Json.io_stats ws.Sort_pool.w_io);
                      ] ))
                r.workers) );
       ]);
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
    (Obs.Json.Obj
       [
         ("wall_s", Obs.Json.Float r.wall_seconds);
         ("simulated_ms", Obs.Json.Float r.simulated_ms);
       ]);
  rep

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>events=%d (elements=%d, text=%d), height=%d@,\
     subtree sorts=%d (in-memory=%d, external=%d), fragments=%d (merges=%d)@,\
     runs=%d (%d blocks)@,\
     io: input=%a output=%a total=%a@,\
     wall=%.3fs%t@]"
    r.events r.elements r.text_nodes r.height r.subtree_sorts r.in_memory_sorts r.external_sorts
    r.fragment_runs r.fragment_merges r.runs_created r.run_blocks Extmem.Io_stats.pp r.input_io
    Extmem.Io_stats.pp r.output_io Extmem.Io_stats.pp r.total_io r.wall_seconds
    (fun ppf -> if r.simulated_ms > 0. then Format.fprintf ppf "@,simulated io time=%.2fms" r.simulated_ms)
