(* The forest machinery itself is the pure [Forest] module (shared with
   the worker pool); this module binds it to a session.  Entries travel
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

(* Chunk-level pull merge of fragment runs.  [keep_headers] preserves
   chunk headers (intermediate passes); the final pass drops them.  The
   first record of every run is read here. *)
let fragment_batch_pull (session : Session.t) ~keep_headers ~fragments =
  let readers =
    List.map
      (fun id ->
        let r = Extmem.Run_store.open_run session.Session.runs id in
        let first = Extmem.Block_reader.read_record r in
        (r, ref first))
      fragments
  in
  (* sorted work list keyed by (key, pos, reader index) for stability *)
  let items : (Key.t * int * int) list ref = ref [] in
  let insert ((k, p, i) as item) =
    let rec ins = function
      | [] -> [ item ]
      | (k', p', i') :: _ as l
        when Key.compare k k' < 0
             || (Key.compare k k' = 0 && (p < p' || (p = p' && i < i'))) -> item :: l
      | x :: rest -> x :: ins rest
    in
    items := ins !items
  in
  let readers = Array.of_list readers in
  Array.iteri
    (fun i (_, pending) ->
      match !pending with
      | Some h when is_header h ->
          let k, p = decode_header h in
          insert (k, p, i)
      | Some _ -> raise (Extmem.Codec.Corrupt "fragment run does not start with a header")
      | None -> ())
    readers;
  let current = ref None in (* reader whose chunk is being copied *)
  let rec pull () =
    match !current with
    | Some i -> (
        let r, pending = readers.(i) in
        match Extmem.Block_reader.read_record r with
        | None ->
            pending := None;
            current := None;
            pull ()
        | Some rec_ when is_header rec_ ->
            pending := Some rec_;
            let k', p' = decode_header rec_ in
            insert (k', p', i);
            current := None;
            pull ()
        | Some rec_ -> Some rec_)
    | None -> (
        match !items with
        | [] -> None
        | (k, p, i) :: rest ->
            items := rest;
            current := Some i;
            if keep_headers then Some (encode_header k p) else pull ())
  in
  pull

(* A merge of fragment runs whose reader buffers are reserved under
   [who] for as long as it is open — released by [close], also when the
   first reads fault.  The reservation is clamped to what is free: the
   fan-in guarantees at least a 2-way merge even on degenerate budgets
   (the paper's minimum), so the floor may over-commit by design rather
   than fail. *)
let open_fragment_batch (session : Session.t) ~who ~blocks ~keep_headers ~fragments =
  let budget = session.Session.budget in
  let held = min blocks (Extmem.Memory_budget.available_blocks budget) in
  Extmem.Memory_budget.reserve budget ~who held;
  let released = ref false in
  let close () =
    if not !released then begin
      released := true;
      Extmem.Memory_budget.release budget ~who held
    end
  in
  match fragment_batch_pull session ~keep_headers ~fragments with
  | pull -> { Pipe.pull; close }
  | exception e ->
      close ();
      raise e

let fan_in (session : Session.t) =
  max 2 (Extmem.Memory_budget.available_blocks session.Session.budget - 1)

let rec reduce_fragments session fragments =
  Session.reclaim session;
  let k = fan_in session in
  if List.length fragments <= k then fragments
  else begin
    let rec batches = function
      | [] -> []
      | ids ->
          let rec take n acc = function
            | rest when n = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | x :: tl -> take (n - 1) (x :: acc) tl
          in
          let b, rest = take k [] ids in
          b :: batches rest
    in
    let next =
      List.map
        (fun batch ->
          (* the batch's readers plus the output run's writer buffer *)
          to_run session
            (open_fragment_batch session ~who:"fragment merge"
               ~blocks:(List.length batch + 1) ~keep_headers:true ~fragments:batch))
        (batches fragments)
    in
    reduce_fragments session next
  end

(* The wrapped, merged element; [start_view]'s payload passes through
   verbatim. *)
let merge_fragments_source (session : Session.t) ~start_view ~fragments =
  (* reduce first: intermediate merge passes open their own runs *)
  let fragments = reduce_fragments session fragments in
  let merged =
    open_fragment_batch session ~who:"fragment merge fan-in" ~blocks:(List.length fragments)
      ~keep_headers:false ~fragments
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
  { merged with Pipe.pull }
