(* The forest machinery itself is the pure [Forest] module; this module
   binds it to a session.  Entries travel
   through as [Entry.View.t]s over their original encoded payloads: sorts
   and merges never decode names, attributes or text, and emitted bytes
   are the input bytes (End entries synthesized from level transitions
   are the only encoding done here). *)

let packed (session : Session.t) = session.Session.config.Config.encoding = Config.Packed

let to_run ?buffer (session : Session.t) (s : string Pipe.opened) =
  let drain () =
    let w = Extmem.Run_store.begin_run session.Session.runs in
    Pipe.drain s.Pipe.pull (Extmem.Block_writer.write_record w);
    Extmem.Run_store.finish_run session.Session.runs w
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

(* The scratch device is retired when the stream closes, which its end
   does too. *)
let sort_external_source (session : Session.t) ~input ~scan =
  let config = session.Session.config in
  let temp, retire = Session.open_temp session in
  match
    Forest.keypath_sort ~arena:session.Session.arena ~budget:session.Session.budget ~temp
      ~encoding:config.Config.encoding ~enc:session.Session.enc_scratch
      ~depth_limit:config.Config.depth_limit ~scan input
  with
  | s ->
      let close () =
        s.Pipe.close ();
        retire ()
      in
      let pull () =
        match s.Pipe.pull () with
        | Some _ as entry -> entry
        | None ->
            close ();
            None
      in
      { Pipe.pull; close }
  | exception e ->
      (* The input callback pops the data stack, which may have re-grown
         its borrowed window mid-sort; shed it so an aborted subtree sort
         leaves the budget exactly as a completed one would. *)
      Session.reclaim session;
      retire ();
      raise e

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

(* A merge of fragment runs whose reader buffers are reserved under
   [who] for as long as it is open — released by [close], also when the
   first reads fault.  The reservation is clamped to what is free: the
   fan-in guarantees at least a 2-way merge even on degenerate budgets
   (the paper's minimum), so the floor may over-commit by design rather
   than fail.  [on_close] runs after the release. *)
let open_fragment_batch ?(on_close = ignore) (session : Session.t) ~who ~blocks ~keep_headers
    ~fragments =
  let budget = session.Session.budget in
  let held = min blocks (Extmem.Memory_budget.available_blocks budget) in
  Extmem.Memory_budget.reserve budget ~who held;
  let released = ref false in
  let close () =
    if not !released then begin
      released := true;
      Extmem.Memory_budget.release budget ~who held;
      on_close ()
    end
  in
  match fragment_batch_pull session ~keep_headers ~fragments with
  | pull -> { Pipe.pull; close }
  | exception e ->
      close ();
      raise e

(* A merge of [free] blocks: its readers plus one block for its output. *)
let fan_in free = max 2 (free - 1)

(* Intermediate passes: merge [width] runs at a time (the readers plus
   the output run's writer buffer) until at most [target] remain. *)
let reduce_fragments session ~width ~target fragments =
  let rec batches = function
    | [] -> []
    | ids ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: tl -> take (n - 1) (x :: acc) tl
        in
        let b, rest = take width [] ids in
        b :: batches rest
  in
  let rec go fragments =
    if List.length fragments <= target then fragments
    else
      go
        (List.map
           (fun batch ->
             to_run session
               (open_fragment_batch session ~who:"fragment merge"
                  ~blocks:(List.length batch + 1) ~keep_headers:true ~fragments:batch))
           (batches fragments))
  in
  go fragments

(* The passes [reduce_fragments] makes over [n] runs. *)
let rec passes_needed ~width ~target n =
  if n <= target then 0 else 1 + passes_needed ~width ~target ((n + width - 1) / width)

(* Window lending.  At an element's end the stack windows sit idle: the
   data stack holds only the ancestors' entries, the path stack their
   frames, the output-location stack nothing, and none of them is pushed
   until the merge is done.  When their blocks would save the merge a
   pass, they are lent to it.  The output-location stack is restored
   before the final batch opens — under root fusion the output phase
   consumes that batch and pushes onto it — so the passes aim at what
   the final batch can reserve without it; the other two windows come
   back when the batch closes.  Lending costs a write-back of the dirty
   window blocks and their page-ins later, so a merge that lending
   would not shorten (one that fits one pass, say) lends nothing. *)
let merge_passes (session : Session.t) fragments =
  Session.reclaim session;
  let data = session.Session.data_stack and path = session.Session.path_stack in
  let out = session.Session.out_stack in
  let free = Extmem.Memory_budget.available_blocks session.Session.budget in
  let window = Extmem.Ext_stack.window_blocks in
  let plain = fan_in free in
  let target = fan_in (free + window data + window path) in
  let width = fan_in (free + window data + window path + window out) in
  let n = List.length fragments in
  let plain_passes = passes_needed ~width:plain ~target:plain n in
  let lent_passes = passes_needed ~width ~target n in
  if plain_passes <= lent_passes then
    (reduce_fragments session ~width:plain ~target:plain fragments, plain_passes)
  else
    match
      List.iter Extmem.Ext_stack.lend [ data; path; out ];
      reduce_fragments session ~width ~target fragments
    with
    | reduced ->
        Extmem.Ext_stack.restore out;
        (reduced, lent_passes)
    | exception e ->
        List.iter Extmem.Ext_stack.restore [ out; path; data ];
        raise e

(* The wrapped, merged element; [start_view]'s payload passes through
   verbatim. *)
let merge_fragments_source (session : Session.t) ~start_view ~fragments =
  let fragments, passes = merge_passes session fragments in
  let merged =
    open_fragment_batch session ~who:"fragment merge fan-in" ~blocks:(List.length fragments)
      ~keep_headers:false ~fragments ~on_close:(fun () ->
        Extmem.Ext_stack.restore session.Session.path_stack;
        Extmem.Ext_stack.restore session.Session.data_stack)
  in
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
