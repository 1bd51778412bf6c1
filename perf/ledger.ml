(* Traced run: per-layer numbers and the ledger that must add up.

   Three sources, none of them new instrumentation in the program:
   - the CLIs' own --metrics reports, for exact counts (§4.2 I/O
     breakdown, sort counts, GC, queue waits, ingest flushes);
   - replays of each layer's public functions on the workload's own
     document, timed by the benchmark and recorded as spans on an
     Obs.Tracer (so nextrace can read the file) with GC deltas;
   - untraced CLI runs for the end-to-end figure the ledger is held to.

   The replays are driven by a shadow of NEXSORT's scan phase: the same
   push / collapse / degenerate decisions over the same encoded entries,
   so the stack replay pages like the sorter's stacks and the forest
   replay sorts the chunks the sorter sorts in memory. *)

open Run_ctx

(* ---- timed spans ---- *)

(* Run [f] inside a span named [name] on the benchmark's tracer, with the
   allocation it did as counters; returns the result and the ns taken. *)
let span tr name f =
  let mw0 = Gc.minor_words () and g0 = Gc.quick_stat () in
  Obs.Tracer.begin_s tr name;
  let t0 = Proc.now_ns () in
  let r = f () in
  let ns = Proc.now_ns () - t0 in
  Obs.Tracer.end_s tr name;
  let g1 = Gc.quick_stat () in
  let count what v = Obs.Tracer.counter tr (Obs.Tracer.intern tr ("gc." ^ what)) (int_of_float v) in
  count "minor_words" (Gc.minor_words () -. mw0);
  count "promoted_words" (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  count "major_words" (g1.Gc.major_words -. g0.Gc.major_words);
  (r, ns)

(* ---- layer replays ---- *)

let parse_pass xml =
  let p = Xmlio.Parser.of_string ~dict:(Xmlio.Dict.create ()) xml in
  let n = ref 0 in
  while Xmlio.Parser.next_packed p <> None do
    incr n
  done;
  !n

(* The encoded entries of a document in scan order, as the sorter pushes
   them: Start entries with their @id key, Text entries, and End entries
   carrying the resolved key. *)
type entries = {
  kinds : Bytes.t;  (* 'S', 'T' or 'E' *)
  levels : int array;
  positions : int array;
  keys : Nexsort.Key.t array;
  payloads : string array;
}

let encode_pass ~events xml =
  let dict = Xmlio.Dict.create () and enc = Extmem.Codec.Enc.create () in
  let ev = Nexsort.Ordering.Evaluator.create Workload.ordering in
  let e =
    { kinds = Bytes.make events 'T'; levels = Array.make events 0; positions = Array.make events 0;
      keys = Array.make events Nexsort.Key.Null; payloads = Array.make events "" }
  in
  let p = Xmlio.Parser.of_string ~dict xml in
  let level = ref 0 and pos = ref 0 and i = ref 0 and opened = ref [] in
  let store kind lvl fpos key payload =
    Bytes.set e.kinds !i kind;
    e.levels.(!i) <- lvl;
    e.positions.(!i) <- fpos;
    e.keys.(!i) <- key;
    e.payloads.(!i) <- payload;
    incr i
  in
  let rec go () =
    match Xmlio.Parser.next_packed p with
    | None -> ()
    | Some pk ->
        (match pk.Xmlio.Event.pkind with
        | Xmlio.Event.Pstart ->
            incr level;
            incr pos;
            let key =
              Nexsort.Ordering.Evaluator.on_start_lookup ev pk.Xmlio.Event.pname
                (Xmlio.Event.packed_attr pk)
            in
            opened := (!pos, key) :: !opened;
            store 'S' !level !pos
              (Option.value key ~default:Nexsort.Key.Null)
              (Nexsort.Entry.encode_start_of_packed Nexsort.Config.Dict dict enc ~level:!level ~pos:!pos
                 ~key pk)
        | Xmlio.Event.Ptext ->
            incr pos;
            Nexsort.Ordering.Evaluator.on_text ev pk.Xmlio.Event.ptext;
            store 'T' (!level + 1) !pos Nexsort.Key.Null
              (Nexsort.Entry.encode_text_to enc ~level:(!level + 1) ~pos:!pos pk.Xmlio.Event.ptext)
        | Xmlio.Event.Pend ->
            let key_end = Nexsort.Ordering.Evaluator.on_end ev in
            let fpos, key = List.hd !opened in
            opened := List.tl !opened;
            let key =
              match key with Some k -> k | None -> Option.value key_end ~default:Nexsort.Key.Null
            in
            store 'E' !level fpos key
              (Nexsort.Entry.encode_end_to enc ~level:!level ~pos:fpos ~key:(Some key));
            decr level);
        go ()
  in
  go ();
  e

(* ---- shadow of the sorter's scan phase ---- *)

type op =
  | Push of string  (* data-stack push *)
  | Collapse of int  (* scan the data stack from a position, then truncate to it *)
  | Frame_push of string
  | Frame_pop
  | Frame_top

type frame = {
  loc : int;
  children_loc : int;
  fpos : int;
  flevel : int;
  fkey : Nexsort.Key.t;
  mutable frags : int list;  (* fragment run ids *)
  mutable frag_chunks : string list list;  (* their entries, newest first *)
  mutable frag_bytes : int;
}

type sim = {
  arena : int;  (* bytes of the sort arena *)
  ops : op Extmem.Vec.t;
  mutable pushes : int;
  mutable chunks : string list list;  (* sorted in memory: subtrees and fragments *)
  mutable chunk_entries : int;
  mutable external_chunks : string list list;  (* subtrees too big for the arena *)
  mutable merges : string list list list;  (* per fragmented element, its fragments *)
  mutable in_memory : int;
  mutable fragments : int;
  mutable run_bytes : int;  (* bytes written to sorted runs, fragments excepted *)
}

(* Same layout as the sorter's path-stack frames, so frame sizes (and
   with them path-stack paging) match. *)
let encode_frame f =
  let buf = Buffer.create 32 in
  List.iter (Extmem.Codec.put_varint buf) [ f.loc; f.children_loc; f.fpos; f.flevel ];
  Nexsort.Key.encode_opt buf (Some f.fkey);
  Extmem.Codec.put_varint buf (List.length f.frags);
  List.iter (Extmem.Codec.put_varint buf) f.frags;
  Buffer.contents buf

let simulate (cfg : Nexsort.Config.t) (e : entries) =
  let b = cfg.Nexsort.Config.block_size in
  (* the sort arena: memory left after the input, output-location,
     path-stack and data-stack buffers *)
  let arena =
    (cfg.Nexsort.Config.memory_blocks - cfg.Nexsort.Config.data_stack_blocks
   - cfg.Nexsort.Config.path_stack_blocks - 2)
    * b
  in
  let s =
    { arena; ops = Extmem.Vec.create (); pushes = 0; chunks = []; chunk_entries = 0;
      external_chunks = []; merges = []; in_memory = 0; fragments = 0; run_bytes = 0 }
  in
  let shadow = Extmem.Vec.create () and len = ref 0 and frames = ref [] and runs = ref 0 in
  let dict = Xmlio.Dict.create () and enc = Extmem.Codec.Enc.create () in
  let op o = Extmem.Vec.push s.ops o in
  let push p =
    Extmem.Vec.push shadow (!len, p);
    len := !len + Extmem.Ext_stack.framed_size p;
    s.pushes <- s.pushes + 1;
    op (Push p)
  in
  (* remove and return the entries at or above [pos], bottom to top *)
  let collapse pos =
    op (Collapse pos);
    let rec first i = if i > 0 && fst (Extmem.Vec.get shadow (i - 1)) >= pos then first (i - 1) else i in
    let k = first (Extmem.Vec.length shadow) in
    let rec take i acc = if i < k then acc else take (i - 1) (snd (Extmem.Vec.get shadow i) :: acc) in
    let l = take (Extmem.Vec.length shadow - 1) [] in
    Extmem.Vec.truncate shadow k;
    len := pos;
    l
  in
  let sorted_in_memory l =
    s.chunks <- l :: s.chunks;
    s.chunk_entries <- s.chunk_entries + List.length l
  in
  let new_run () =
    incr runs;
    !runs
  in
  let add_fragment f l =
    sorted_in_memory l;
    s.fragments <- s.fragments + 1;
    f.frags <- f.frags @ [ new_run () ];
    f.frag_chunks <- l :: f.frag_chunks
  in
  let degenerate () =
    match !frames with
    | [] -> ()
    | top :: _ ->
        op Frame_top;
        let region = !len - top.children_loc in
        if region >= arena && region > 0 then begin
          add_fragment top (collapse top.children_loc);
          top.frag_bytes <- top.frag_bytes + region;
          op Frame_pop;
          op (Frame_push (encode_frame top))
        end
  in
  let run_ptr f size =
    Nexsort.Entry.encode_to Nexsort.Config.Dict dict enc
      (Nexsort.Entry.Run_ptr { level = f.flevel; pos = f.fpos; key = f.fkey; run = new_run (); bytes = size })
  in
  Array.iteri
    (fun i payload ->
      match Bytes.get e.kinds i with
      | 'S' ->
          let loc = !len in
          push payload;
          let f =
            { loc; children_loc = !len; fpos = e.positions.(i); flevel = e.levels.(i); fkey = e.keys.(i);
              frags = []; frag_chunks = []; frag_bytes = 0 }
          in
          op (Frame_push (encode_frame f));
          frames := f :: !frames;
          degenerate ()
      | 'T' ->
          push payload;
          degenerate ()
      | _ ->
          op Frame_pop;
          let f = List.hd !frames in
          frames := List.tl !frames;
          let root = f.flevel = 1 in
          if f.frags <> [] then begin
            (* merge the fragments plus the unsorted tail *)
            let size = !len - f.loc in
            (match collapse f.loc with
            | _start :: (_ :: _ as tail) -> add_fragment f tail
            | _ -> ());
            s.merges <- List.rev f.frag_chunks :: s.merges;
            if not root then begin
              s.run_bytes <- s.run_bytes + f.frag_bytes + size;
              push (run_ptr f size)
            end
          end
          else begin
            push payload;
            let size = !len - f.loc in
            if size >= cfg.Nexsort.Config.threshold || root then begin
              let l = collapse f.loc in
              if size <= arena then begin
                sorted_in_memory l;
                s.in_memory <- s.in_memory + 1
              end
              else s.external_chunks <- l :: s.external_chunks;
              if not root then begin
                s.run_bytes <- s.run_bytes + size;
                push (run_ptr f size)
              end
            end
          end;
          if not root then degenerate ())
    e.payloads;
  s

let stack_replay (cfg : Nexsort.Config.t) sim =
  let b = cfg.Nexsort.Config.block_size in
  let data =
    Extmem.Ext_stack.create ~name:"data stack" ~resident_blocks:cfg.Nexsort.Config.data_stack_blocks
      (Extmem.Device.in_memory ~block_size:b ())
  and path =
    Extmem.Ext_stack.create ~name:"path stack" ~resident_blocks:cfg.Nexsort.Config.path_stack_blocks
      (Extmem.Device.in_memory ~block_size:b ())
  in
  Extmem.Vec.iter
    (function
      | Push p -> Extmem.Ext_stack.push data p
      | Collapse pos ->
          Extmem.Ext_stack.iter_entries_from data ~pos ignore;
          Extmem.Ext_stack.truncate_to data pos
      | Frame_push f -> Extmem.Ext_stack.push path f
      | Frame_pop -> ignore (Extmem.Ext_stack.pop path)
      | Frame_top -> ignore (Extmem.Ext_stack.top path))
    sim.ops;
  Extmem.Ext_stack.page_ins data + Extmem.Ext_stack.page_ins path

let forest_replay chunks =
  List.iter
    (fun chunk ->
      let views = List.map (Nexsort.Entry.View.of_payload Nexsort.Config.Dict) chunk in
      let forest = Nexsort.Forest.sort_forest ~depth_limit:None (Nexsort.Forest.build_forest views) in
      let pull = Nexsort.Forest.forest_pull ~packed:false forest in
      while pull () <> None do
        ()
      done)
    chunks

(* Key-path external merge sort (External_sort over
   Forest.forward_records) of [payloads], entries in document order, in
   [blocks] blocks of memory; returns the sort's stats and its temp I/Os. *)
let keypath_sort ~blocks ~block_size ~cmp payloads =
  let budget = Extmem.Memory_budget.create ~blocks ~block_size in
  let temp = Extmem.Device.in_memory ~block_size () in
  let rest = ref payloads in
  let views () =
    match !rest with
    | [] -> None
    | p :: r ->
        rest := r;
        Some (Nexsort.Entry.View.of_payload Nexsort.Config.Dict p)
  in
  let input = Nexsort.Forest.forward_records ~enc:(Extmem.Codec.Enc.create ()) ~depth_limit:None views in
  let st = Extsort.External_sort.sort ~budget ~temp ~cmp ~input ~output:ignore () in
  (st, Extmem.Io_stats.total (Extmem.Device.stats temp))

let rec groups n = function
  | [] -> []
  | l ->
      let rec split k acc = function
        | x :: r when k > 0 -> split (k - 1) (x :: acc) r
        | r -> (List.rev acc, r)
      in
      let g, rest = split n [] l in
      g :: groups n rest

(* The sorter's own external work, for the ledger: key-path external
   sorts of the subtrees too big for the arena, and for each fragmented
   element the merge of its fragments, written as runs of child subtrees
   headed by their (key, pos) and merged at most (arena blocks - 1) at a
   time.  Building the child records sorts the fragments, which the
   forest row already counts, so it happens here, before timing; the
   returned function is the timed part. *)
let external_work (cfg : Nexsort.Config.t) sim =
  let b = cfg.Nexsort.Config.block_size in
  let blocks = sim.arena / b in
  let fan_in = max 2 (blocks - 1) in
  let view = Nexsort.Entry.View.of_payload Nexsort.Config.Dict in
  let child_records chunk =
    let enc = Extmem.Codec.Enc.create () in
    Nexsort.Forest.sort_forest ~depth_limit:None (Nexsort.Forest.build_forest (List.map view chunk))
    |> List.map (fun (node : Nexsort.Forest.node) ->
           let buf = Buffer.create 256 in
           Nexsort.Forest.emit_node ~packed:false enc
             (fun p ->
               Extmem.Codec.put_varint buf (String.length p);
               Buffer.add_string buf p)
             node;
           Nexsort.Keypath.encode_record
             [ { Nexsort.Keypath.key = node.Nexsort.Forest.key;
                 pos = Nexsort.Entry.View.pos node.Nexsort.Forest.view } ]
             ~payload:(Buffer.contents buf))
  in
  let merges = List.map (List.map child_records) sim.merges in
  let cmp = Nexsort.Keypath.compare_encoded in
  fun () ->
    List.iter
      (fun chunk -> ignore (keypath_sort ~blocks ~block_size:b ~cmp chunk))
      sim.external_chunks;
    List.iter
      (fun fragments ->
        let temp = Extmem.Device.in_memory ~block_size:b () in
        let write fill =
          let w = Extmem.Block_writer.create temp in
          fill (Extmem.Block_writer.write_record w);
          Extmem.Block_writer.close w
        in
        let inputs runs =
          Array.of_list
            (List.map
               (fun extent ->
                 let r = Extmem.Block_reader.of_extent temp extent in
                 fun () -> Extmem.Block_reader.read_record r)
               runs)
        in
        let rec merge runs =
          if List.length runs <= fan_in then
            Extsort.Multiway.merge ~cmp ~inputs:(inputs runs) ~output:ignore ()
          else
            merge
              (List.map
                 (fun group ->
                   write (fun emit -> Extsort.Multiway.merge ~cmp ~inputs:(inputs group) ~output:emit ()))
                 (groups fan_in runs))
        in
        merge (List.map (fun records -> write (fun emit -> List.iter emit records)) fragments))
      merges

(* Write every entry to a run and read it back; returns the bytes. *)
let run_io_replay ~block_size payloads =
  let dev = Extmem.Device.in_memory ~block_size () in
  let w = Extmem.Block_writer.create dev in
  Array.iter (Extmem.Block_writer.write_record w) payloads;
  let extent = Extmem.Block_writer.close w in
  let r = Extmem.Block_reader.of_extent dev extent in
  while Extmem.Block_reader.read_record r <> None do
    ()
  done;
  Array.fold_left (fun a p -> a + String.length p) 0 payloads

let writer_replay events =
  let buf = Buffer.create (1 lsl 20) in
  let w = Xmlio.Writer.to_buffer buf in
  Array.iter (Xmlio.Writer.event w) events;
  Xmlio.Writer.close w

(* The raw-copy floor: the document's bytes through a block reader and a
   block writer, nothing else. *)
let cat_replay ~block_size src =
  let dst = Extmem.Device.in_memory ~block_size () in
  let r = Extmem.Block_reader.of_device src and w = Extmem.Block_writer.create dst in
  let buf = Bytes.create block_size in
  let rec go () =
    match Extmem.Block_reader.read_bytes r buf 0 block_size with
    | 0 -> ()
    | n ->
        Extmem.Block_writer.write_bytes w buf 0 n;
        go ()
  in
  go ();
  ignore (Extmem.Block_writer.close w)

(* Admission, budget carve, session set-up and release of jobs that do
   nothing, under the tenants daemon's engine. *)
let engine_replay n =
  let eng = Engine.create ~memory_blocks:1100 ~block_size:4096 () in
  let config = Workload.sort_config Workload.Tenants in
  Fun.protect
    ~finally:(fun () -> Engine.destroy eng)
    (fun () ->
      for i = 1 to n do
        Engine.run eng ~tenant:(Workload.tenant_of_job i) config (fun _ _ -> ())
      done)

(* In-process ingest over [base]: create (the base load), then each
   update timed on its own and each flush timed on its own. *)
let ingest_replay tr ~flush_every ~updates base =
  let t, _ =
    span tr "xmerge.ingest.create" (fun () ->
        Xmerge.Ingest.create ~config:(Nexsort.Config.make ()) ~ordering:Workload.ordering ~base ())
  in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      let adds = ref [] and flushes = ref [] and reports = ref [] in
      let flush () =
        let r, ns = span tr "xmerge.ingest.flush" (fun () -> Xmerge.Ingest.flush t) in
        flushes := float_of_int ns :: !flushes;
        reports := r :: !reports
      in
      List.iteri
        (fun i u ->
          let (), ns = span tr "xmerge.ingest.add_update" (fun () -> Xmerge.Ingest.add_update t u) in
          adds := float_of_int ns :: !adds;
          if (i + 1) mod flush_every = 0 then flush ())
        updates;
      if Xmerge.Ingest.pending t > 0 then flush ();
      (!adds, !flushes, List.rev !reports))

(* ---- the traced run ---- *)

let run ctx tr w =
  let t_start = Proc.now_s () in
  let tally = Run_ctx.tally () in
  let wname = Workload.to_string w in
  Obs.Tracer.begin_s tr ("workload:" ^ wname);
  let inp, _ = span tr "generate" (fun () -> Workload.generate ~scale:ctx.scale ~seed:ctx.seed w) in
  let reference, _ = span tr "reference" (fun () -> E2e.reference ctx tally inp) in
  let events = inp.Workload.doc_events and bytes = String.length inp.Workload.xml in
  (* the program's own numbers: untraced -j1, -j2, and --trace runs of
     the workload's sort, interleaved, every output checked *)
  let ios = ref None in
  let j1 = ref [] and j2 = ref [] and traced = ref [] and reports = ref [] in
  let reps = match ctx.scale with Workload.Full -> 3 | Workload.Smoke -> 1 in
  for _ = 1 to reps do
    List.iter
      (fun (flags, into, label) ->
        match span tr label (fun () -> E2e.sort_once ~flags ctx tally w ~ios ~reference inp.doc) with
        | Some (r, rep), _ ->
            into := r.Proc.wall_s :: !into;
            reports := rep :: !reports
        | None, _ -> ())
      [ ([], j1, "cli.sort.j1"); ([ "--jobs"; "2" ], j2, "cli.sort.j2");
        ([ "--trace"; "cli-trace.json" ], traced, "cli.sort.traced") ]
  done;
  let ms_ios = ref None in
  let mergesort, _ =
    span tr "cli.mergesort" (fun () ->
        E2e.sort_once ~flags:[ "-a"; "mergesort" ] ctx tally w ~ios:ms_ios ~reference inp.doc)
  in
  let first = match List.rev !reports with r :: _ -> r | [] -> Obs.Json.Null in
  let num path = number first path in
  let queue_waits =
    match w with
    | Workload.Tenants ->
        let waits = ref [] in
        ignore
          (span tr "cli.daemon" (fun () ->
               E2e.daemon_session ctx tally inp ~reference
                 ~rounds:(Workload.rounds_per_daemon ctx.scale) ~ios:(ref None)
                 ~on_job:(fun rep -> waits := number rep [ "job"; "queue_wait_ms" ] :: !waits)));
        !waits
    | Workload.Deep | Workload.Flat | Workload.Ingest ->
        List.map (fun rep -> number rep [ "job"; "queue_wait_ms" ]) !reports
  in
  (* the layers, replayed in-process on the same document *)
  let cfg = Workload.sort_config w in
  let b = cfg.Nexsort.Config.block_size in
  let ref_events, _ =
    span tr "parse reference" (fun () ->
        Array.of_list (Xmlio.Parser.to_list (Xmlio.Parser.of_string reference)))
  in
  let updates, flush_every =
    match w with
    | Workload.Ingest ->
        (List.map Workload.read_file inp.updates, (Workload.ingest_plan ctx.scale).Workload.flush_every)
    | Workload.Deep | Workload.Flat | Workload.Tenants ->
        (* one flush: on flat's 100,000 top-level records it takes seconds *)
        let u, _, _ = Workload.make_updates ~seed:ctx.seed ~docs:1 ~ops_per_doc:8 inp.xml in
        (u, 1)
  in
  let (adds, flushes, flush_reports), _ =
    span tr "xmerge.ingest" (fun () -> ingest_replay tr ~flush_every ~updates inp.xml)
  in
  let samples = Hashtbl.create 16 in
  let sample k v = Hashtbl.replace samples k (v :: Option.value (Hashtbl.find_opt samples k) ~default:[]) in
  let last_sim = ref None and last_ext = ref None and page_ins = ref 0 in
  (* the replays repeat for what is left of the run's measuring time *)
  repeat ~seconds:(ctx.seconds -. (Proc.now_s () -. t_start)) ~min_reps:1 (fun _ ->
      (* parse alone and parse+encode, twice each, alternating: the
         encode cost is the difference of the faster of each *)
      let parse_ns = ref max_int and pe_ns = ref max_int and entries = ref None and words = ref nan in
      for _ = 1 to 2 do
        let mw = Gc.minor_words () in
        let n, ns = span tr "xmlio.parse" (fun () -> parse_pass inp.xml) in
        if n <> events then check tally false (Printf.sprintf "parse replay: %d events, expected %d" n events);
        words := (Gc.minor_words () -. mw) /. float_of_int n;
        parse_ns := min !parse_ns ns;
        let e, ns = span tr "xmlio.parse+core.entry" (fun () -> encode_pass ~events inp.xml) in
        entries := Some e;
        pe_ns := min !pe_ns ns
      done;
      let e = Option.get !entries in
      let sim = simulate cfg e in
      let pins, stack_ns = span tr "extmem.ext_stack" (fun () -> stack_replay cfg sim) in
      let (), forest_ns = span tr "core.forest" (fun () -> forest_replay sim.chunks) in
      (* the layer alone: the whole document, 16 x 1 KiB, comparisons counted *)
      let compares = ref 0 in
      let counting a b =
        incr compares;
        Nexsort.Keypath.compare_encoded a b
      in
      let all = Array.to_list e.payloads in
      let (ext, temp_ios), ext_ns =
        span tr "extsort" (fun () -> keypath_sort ~blocks:16 ~block_size:1024 ~cmp:counting all)
      in
      let work = external_work cfg sim in
      let (), work_ns = span tr "extsort.sorter_work" work in
      let run_bytes, run_ns = span tr "extmem.run_io" (fun () -> run_io_replay ~block_size:b e.payloads) in
      let (), writer_ns = span tr "xmlio.writer" (fun () -> writer_replay ref_events) in
      let src = Extmem.Device.of_string ~block_size:b inp.xml in
      let (), cat_ns = span tr "floor.cat" (fun () -> cat_replay ~block_size:b src) in
      let jobs = match ctx.scale with Workload.Full -> 500 | Workload.Smoke -> 50 in
      let (), eng_ns = span tr "engine.job" (fun () -> engine_replay jobs) in
      let per_event ns = float_of_int ns /. float_of_int events in
      sample "parse" (per_event !parse_ns);
      sample "words" !words;
      sample "entry" (per_event (!pe_ns - !parse_ns));
      sample "stack" (float_of_int stack_ns /. float_of_int sim.pushes);
      sample "stack_ev" (per_event stack_ns);
      sample "forest" (float_of_int forest_ns /. float_of_int (max 1 sim.chunk_entries));
      sample "forest_ev" (per_event forest_ns);
      sample "extsort" (float_of_int ext_ns /. float_of_int ext.Extsort.External_sort.records);
      sample "extsort_ev" (per_event work_ns);
      sample "run_ns_per_byte" (float_of_int run_ns /. float_of_int run_bytes);
      sample "writer" (float_of_int writer_ns /. float_of_int (Array.length ref_events));
      sample "writer_ev" (per_event writer_ns);
      sample "cat" (mb bytes /. (float_of_int cat_ns *. 1e-9));
      sample "engine" (float_of_int eng_ns /. float_of_int jobs /. 1e3);
      last_sim := Some sim;
      last_ext := Some (ext, !compares, temp_ios);
      page_ins := pins;
      true);
  let med k = Stats.median (Option.value (Hashtbl.find_opt samples k) ~default:[]) in
  let sim = Option.get !last_sim and ext, compares, temp_ios = Option.get !last_ext in
  let records = float_of_int ext.Extsort.External_sort.records in
  (* the ledger: each layer's cost over the work the sorter does, per
     input event, against the untraced end-to-end figure *)
  let e2e_ns = Stats.median !j1 *. 1e9 /. float_of_int events in
  let rows =
    [ ("parse (xmlio.parse)", med "parse");
      ("encode (core.entry)", med "entry");
      ("data/path stacks (extmem.ext_stack)", med "stack_ev");
      ("in-memory sorts (core.forest)", med "forest_ev");
      ("external sorts and merges (extsort)", med "extsort_ev");
      ("run write+read (extmem.run_io)", med "run_ns_per_byte" *. float_of_int sim.run_bytes /. float_of_int events);
      ("output writer (xmlio.writer)", med "writer_ev") ]
  in
  let attributed = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  let unattributed = e2e_ns -. attributed in
  let pct v = 100. *. v /. e2e_ns in
  let report =
    (Printf.sprintf "ledger %s (seed %d): %d events, ns per input event" wname ctx.seed events
    :: List.map (fun (l, v) -> Printf.sprintf "  %-40s %10.1f %6.1f%%" l v (pct v)) rows)
    @ [ Printf.sprintf "  %-40s %10.1f %6.1f%%" "unattributed" unattributed (pct unattributed);
        Printf.sprintf "  %-40s %10.1f %6.1f%%  (median of %d untraced -j1 runs)" "end to end" e2e_ns
          100. (List.length !j1);
        Printf.sprintf
          "  shadow scan: %d in-memory sorts, %d external, %d fragments (the sorter reported %.0f, \
           %.0f, %.0f)"
          sim.in_memory (List.length sim.external_chunks) sim.fragments
          (num [ "counts"; "in_memory_sorts" ])
          (num [ "counts"; "external_sorts" ])
          (num [ "counts"; "fragment_runs" ]) ]
  in
  let flush_ios, pq_spills =
    match w with
    | Workload.Ingest -> (
        (* the ingest CLI's own report of one request *)
        match
          span tr "cli.ingest" (fun () ->
              E2e.ingest_once ctx tally inp ~ios:(ref None) ~golden:(ref None))
        with
        | Some (_, rep), _ ->
            let spills =
              match field rep [ "ingest" ] with
              | Some (Obs.Json.List (_ :: _ as l)) ->
                  number (List.nth l (List.length l - 1)) [ "pq"; "spills" ]
              | _ -> nan
            in
            (ingest_ios rep, spills)
        | None, _ -> (nan, nan))
    | Workload.Deep | Workload.Flat | Workload.Tenants ->
        ( float_of_int
            (List.fold_left (fun a r -> a + Extmem.Io_stats.total r.Xmerge.Ingest.flush_io) 0 flush_reports),
          match List.rev flush_reports with
          | r :: _ -> float_of_int r.Xmerge.Ingest.pq.Extsort.Ext_pq.spills
          | [] -> nan )
  in
  Obs.Tracer.end_s tr ("workload:" ^ wname);
  let floor_mb_s, floor_ios =
    match mergesort with Some (r, rep) -> (mb bytes /. r.Proc.wall_s, sort_ios rep) | None -> (nan, nan)
  in
  (* every per-layer metric: name, unit, value, and the end-to-end metric and
     workload it should move *)
  let metrics =
    List.map
      (fun (name, unit_, value, moves) -> { name; value; unit_; note = "should move " ^ moves })
      [
        ("xmlio.parse.ns_per_event", "ns", med "parse",
         "mb_s/events_s on deep and flat, latency_s_p50 on tenants");
        ("xmlio.parse.words_per_event", "words", med "words",
         "mb_s on deep and flat, latency_s_p50 on tenants");
        ("core.entry.ns_per_event", "ns", med "entry",
         "mb_s on deep and flat");
        ("extmem.ext_stack.ns_per_entry", "ns", med "stack",
         "mb_s on flat (barely deep)");
        ("extmem.ext_stack.page_ins", "count", float_of_int !page_ins,
         "mb_s and block_ios on flat");
        ("core.forest.ns_per_entry", "ns", med "forest",
         "mb_s on deep");
        ("extsort.ns_per_record", "ns", med "extsort",
         "mb_s on flat");
        ("extsort.compares_per_record", "count", float_of_int compares /. records,
         "mb_s on flat");
        ("extsort.merge_passes", "count", float_of_int ext.Extsort.External_sort.merge_passes,
         "block_ios and mb_s on flat");
        ("extsort.temp_ios", "count", float_of_int temp_ios,
         "block_ios on flat");
        ("extmem.run_io.mb_s", "MB/s", 1e3 /. med "run_ns_per_byte",
         "mb_s on deep");
        ("xmlio.writer.ns_per_event", "ns", med "writer",
         "mb_s on deep and flat");
        ("engine.job_overhead_us", "us", med "engine",
         "latency_s_p50 on tenants, not deep");
        ("xmerge.ingest.flush_ms", "ms", Stats.median flushes /. 1e6,
         "latency_s_p50 and mb_s on ingest");
        ("xmerge.ingest.add_us", "us", Stats.median adds /. 1e3,
         "latency_s_p50 on ingest");
        ("sort_pool.j2_over_j1", "ratio", Stats.median !j2 /. Stats.median !j1,
         "deep wall at --jobs 2 (ROADMAP item 3); end-to-end runs use -j1");
        ("floor.cat.mb_s", "MB/s", med "cat",
         "ceiling for mb_s on every workload");
        ("floor.mergesort.mb_s", "MB/s", floor_mb_s,
         "the mb_s deep and flat must beat");
        ("floor.mergesort.block_ios", "count", floor_ios,
         "the block_ios deep and flat must beat");
        ("ledger.unattributed.ns_per_event", "ns", unattributed,
         "mb_s where the replayed layers do not explain it");
        ("trace.overhead_pct", "%", 100. *. ((Stats.median !traced /. Stats.median !j1) -. 1.),
         "nothing: end-to-end runs are untraced");
        ("sorter.io.input", "count", num [ "io"; "input"; "total" ],
         "block_ios on every workload");
        ("sorter.io.subtree_sorts", "count", num [ "io"; "subtree_sorts"; "total" ],
         "block_ios on deep");
        ("sorter.io.stack_paging", "count", num [ "io"; "stack_paging"; "total" ],
         "block_ios and mb_s on flat");
        ("sorter.io.runs", "count", num [ "io"; "runs"; "total" ],
         "block_ios on deep and flat");
        ("sorter.io.output", "count", num [ "io"; "output"; "total" ],
         "block_ios on every workload");
        ("sorter.in_memory_sorts", "count", num [ "counts"; "in_memory_sorts" ],
         "mb_s on deep");
        ("sorter.external_sorts", "count", num [ "counts"; "external_sorts" ],
         "block_ios on deep");
        ("sorter.fragment_runs", "count", num [ "counts"; "fragment_runs" ],
         "block_ios and mb_s on flat");
        ("sorter.gc.minor_words_per_event", "words", num [ "gc"; "minor_words_per_event" ],
         "mb_s on flat, latency on tenants");
        ("sorter.gc.promoted_words", "words", num [ "gc"; "promoted_words" ],
         "mb_s on flat, latency on tenants");
        ("engine.queue_wait_ms_p50", "ms", Stats.median queue_waits,
         "latency_s_p50 on tenants");
        ("engine.queue_wait_ms_p95", "ms", Stats.quantile 0.95 queue_waits,
         "the round tail on tenants");
        ("ingest.flush_ios", "count", flush_ios,
         "block_ios and latency_s_p50 on ingest");
        ("ingest.pq_spills", "count", pq_spills,
         "block_ios and latency_s_p50 on ingest");
      ]
  in
  outcome ~report ~workload:w ~seed:ctx.seed ~traced:true ~md5:inp.md5 tally metrics
