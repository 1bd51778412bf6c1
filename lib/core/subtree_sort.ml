(* The forest machinery itself is the pure [Forest] module; this module
   binds it to a session.  Entries travel
   through as [Entry.View.t]s over their original encoded payloads: sorts
   and merges never decode names, attributes or text, and emitted bytes
   are the input bytes (End entries synthesized from level transitions
   are the only encoding done here). *)

let packed (session : Session.t) = session.Session.config.Config.encoding = Config.Packed

(* The writer's block comes from the arena's pool and the pointer takes
   the tail straight out of it, so a run allocates no buffer. *)
let to_run ?buffer (session : Session.t) (s : string Pipe.opened) ~pointer =
  let runs = session.Session.runs and arena = session.Session.arena in
  let drain () =
    let frame =
      Extmem.Frame_arena.take arena (Extmem.Device.block_size (Extmem.Run_store.device runs))
    in
    Fun.protect ~finally:(fun () -> Extmem.Frame_arena.give arena frame) @@ fun () ->
    let w = Extmem.Run_store.begin_run ~buffer:frame runs in
    Pipe.drain s.Pipe.pull (Extmem.Block_writer.write_record w);
    let run, n = Extmem.Run_store.finish_pointed runs w in
    pointer run (Bytes.unsafe_to_string frame) n
  in
  Fun.protect ~finally:s.Pipe.close (fun () ->
      match buffer with
      | None -> drain ()
      | Some who -> Extmem.Frame_arena.with_lease session.Session.arena ~who 1 (fun _ -> drain ()))

let sort_in_memory_source (session : Session.t) views =
  let depth_limit = session.Session.config.Config.depth_limit in
  let forest = Forest.sort_forest ~depth_limit (Forest.build_forest views) in
  { Pipe.pull = Forest.forest_pull ~enc:session.Session.enc_scratch ~packed:(packed session) forest;
    close = ignore }

(* ---- key-path external sort ---- *)

(* A sort's stream from [open_]: the plan's phase ends when the stream
   closes, or when opening it raises.  An external sort's input pops the
   data stack, whose elastic window may have re-grown mid-sort; leaving
   the phase reclaims it, so an aborted sort leaves the budget exactly as
   a completed one would. *)
let closing_phase (session : Session.t) open_ =
  let plan = session.Session.plan in
  match open_ () with
  | exception e ->
      Plan.sort_done plan;
      raise e
  | (s : string Pipe.opened) ->
      let left = ref false in
      let leave () = if not !left then (left := true; Plan.sort_done plan) in
      { s with Pipe.close = (fun () -> Fun.protect ~finally:leave s.Pipe.close) }

let sort_external_source (session : Session.t) ~input ~scan =
  let config = session.Session.config in
  Plan.reclaim session.Session.plan;
  (* whatever an earlier sort left on the scratch device is dead: start
     at block 0, so a file-backed device holds one sort's runs at a time *)
  Extmem.Device.clear session.Session.temp;
  let grant = Plan.external_sort session.Session.plan in
  closing_phase session @@ fun () ->
  let free = Extmem.Memory_budget.available_blocks session.Session.budget in
  if free <> grant then
    failwith
      (Printf.sprintf "external sort: the plan grants %d blocks, the budget has %d free" grant free);
  Forest.keypath_sort ~arena:session.Session.arena ~budget:session.Session.budget
    ~temp:session.Session.temp ~encoding:config.Config.encoding ~enc:session.Session.enc_scratch
    ~depth_limit:config.Config.depth_limit ~scan input

(* ---- fragments (graceful degeneration, §3.2) ---- *)

let header_prefix = '\xFF'

let encode_header key pos =
  let buf = Buffer.create 16 in
  Buffer.add_char buf header_prefix;
  Key.encode buf key;
  Extmem.Codec.put_varint buf pos;
  Buffer.contents buf

let decode_header s =
  let c = Extmem.Codec.cursor ~pos:1 s in
  let key = Key.decode c in
  let pos = Extmem.Codec.get_varint c in
  (key, pos)

let is_header s = String.length s > 0 && s.[0] = header_prefix

let write_fragment (session : Session.t) views =
  let depth_limit = session.Session.config.Config.depth_limit in
  (* below the depth limit chunks must keep document order: their headers
     carry Null keys so the merge falls back to the position tiebreak *)
  let header_key (n : Forest.node) =
    match depth_limit with
    | Some d when Entry.View.level n.Forest.view > d + 1 -> Key.Null
    | Some _ | None -> n.Forest.key
  in
  let w = Extmem.Run_store.begin_run session.Session.runs in
  let emit = Extmem.Block_writer.write_record w in
  List.iter
    (fun (n : Forest.node) ->
      emit (encode_header (header_key n) (Entry.View.pos n.Forest.view));
      Forest.emit_node ~packed:(packed session) session.Session.enc_scratch emit n)
    (Forest.sort_forest ~depth_limit (Forest.build_forest views));
  Extmem.Run_store.finish_run session.Session.runs w

(* Chunk-level pull merge of fragment runs.  [keep_headers] passes the
   chunk headers through as read (intermediate passes); the final pass
   drops them.  The first record of every run is read here.  The work
   list is a heap of the runs' next chunks in (key, pos, reader index)
   order: every run has at most one chunk in it, so the order is total
   and the merge stable. *)
type chunk = { key : Key.t; pos : int; reader : int; header : string }

let chunk_before a b =
  let c = Key.compare a.key b.key in
  c < 0 || (c = 0 && (a.pos < b.pos || (a.pos = b.pos && a.reader < b.reader)))

let fragment_batch_pull (session : Session.t) ~keep_headers ~fragments =
  let readers =
    Array.of_list
      (List.map
         (fun id ->
           let r = Extmem.Run_store.open_run session.Session.runs id in
           (r, Extmem.Block_reader.read_record r))
         fragments)
  in
  let chunks = Extsort.Heap.create ~less:chunk_before in
  let add reader header =
    let key, pos = decode_header header in
    Extsort.Heap.push chunks { key; pos; reader; header }
  in
  Array.iteri
    (fun i (_, first) ->
      match first with
      | Some h when is_header h -> add i h
      | Some _ -> raise (Extmem.Codec.Corrupt "fragment run does not start with a header")
      | None -> ())
    readers;
  let current = ref (-1) in (* reader whose chunk is being copied *)
  let rec pull () =
    if !current >= 0 then
      match Extmem.Block_reader.read_record (fst readers.(!current)) with
      | None ->
          current := -1;
          pull ()
      | Some r when is_header r ->
          add !current r;
          current := -1;
          pull ()
      | Some _ as r -> r
    else if Extsort.Heap.is_empty chunks then None
    else begin
      let c = Extsort.Heap.pop chunks in
      current := c.reader;
      if keep_headers then Some c.header else pull ()
    end
  in
  pull

(* The final merge of fragment runs, its reader buffers leased from the
   arena under ["fragment merge fan-in"] until [close], also when the
   first reads fault. *)
let open_final_batch (session : Session.t) ~fragments =
  let lease =
    Extmem.Frame_arena.lease session.Session.arena ~who:"fragment merge fan-in"
      (List.length fragments)
  in
  let close () = Extmem.Frame_arena.close_lease lease in
  match fragment_batch_pull session ~keep_headers:false ~fragments with
  | pull -> { Pipe.pull; close }
  | exception e ->
      close ();
      raise e

(* The wrapped, merged element; [start_view]'s payload passes through
   verbatim.  The plan sizes the passes and moves the stack windows at
   the merge's boundaries; an exception leaves them where it finds them,
   for the session's teardown. *)
let merge_fragments_source (session : Session.t) ~start_view ~fragments =
  let plan = session.Session.plan in
  let m = Plan.fragment_merge plan ~fragments:(List.length fragments) in
  let merge batch =
    let w = Extmem.Run_store.begin_run session.Session.runs in
    Pipe.drain
      (fragment_batch_pull session ~keep_headers:true ~fragments:batch)
      (Extmem.Block_writer.write_record w);
    Extmem.Run_store.finish_run session.Session.runs w
  in
  let fragments, passes =
    Extsort.External_sort.reduce ~arena:session.Session.arena ~who:"fragment merge"
      ~width:m.Plan.width ~target:m.Plan.target ~merge fragments
  in
  Plan.final_batch plan m;
  let merged = closing_phase session (fun () -> open_final_batch session ~fragments) in
  let st = ref `Start in
  let pull () =
    match !st with
    | `Start ->
        st := `Body;
        Some (Entry.View.payload start_view)
    | `Body -> (
        match merged.Pipe.pull () with
        | Some r -> Some r
        | None ->
            st := `Done;
            (match Entry.View.kind start_view with
            | Entry.View.Vstart when not (packed session) ->
                Some
                  (Entry.encode_end_to session.Session.enc_scratch
                     ~level:(Entry.View.level start_view) ~pos:(Entry.View.pos start_view)
                     ~key:None)
            | Entry.View.Vstart | Entry.View.Vend | Entry.View.Vtext | Entry.View.Vrun_ptr ->
                None))
    | `Done -> None
  in
  ({ merged with Pipe.pull }, passes + 1)
