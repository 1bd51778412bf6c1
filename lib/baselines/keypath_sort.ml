module Config = Nexsort.Config
module Entry = Nexsort.Entry
module Key = Nexsort.Key
module Keypath = Nexsort.Keypath
module Ordering = Nexsort.Ordering

type report = {
  records : int;
  record_bytes : int;
  initial_runs : int;
  merge_passes : int;
  input_io : Extmem.Io_stats.t;
  temp_io : Extmem.Io_stats.t;
  output_io : Extmem.Io_stats.t;
  total_io : Extmem.Io_stats.t;
  wall_seconds : float;
  spans : Obs.Span.t;
}

(* Pull-stream of encoded key-path records for the whole document. *)
let record_stream ~config ~ordering ~dict parser counters =
  let evaluator = Ordering.Evaluator.create ordering in
  let enc = config.Config.encoding in
  let stack = ref [] in (* components of open elements, innermost first *)
  let pos = ref 0 in
  let level () = List.length !stack in
  let depth_limit = config.Config.depth_limit in
  let component lvl key p =
    let key =
      match depth_limit with
      | Some d when lvl > d + 1 -> Key.Null
      | Some _ | None -> key
    in
    { Keypath.key; pos = p }
  in
  let emit entry own =
    let record =
      Keypath.encode_record (List.rev !stack @ [ own ]) ~payload:(Entry.encode enc dict entry)
    in
    let n_rec, n_bytes = !counters in
    counters := (n_rec + 1, n_bytes + String.length record);
    Some record
  in
  let rec next () =
    match Xmlio.Parser.next parser with
    | None -> None
    | Some (Xmlio.Event.Start (name, attrs)) ->
        incr pos;
        let key =
          match Ordering.Evaluator.on_start evaluator name attrs with
          | Some k -> k
          | None ->
              invalid_arg
                "Keypath_sort: subtree-derived orderings are not supported by the key-path \
                 baseline (keys must be known at the start tag)"
        in
        let lvl = level () + 1 in
        let own = component lvl key !pos in
        let entry = Entry.Start { level = lvl; pos = !pos; name; attrs; key = Some key } in
        let r = emit entry own in
        stack := own :: !stack;
        r
    | Some (Xmlio.Event.Text content) ->
        incr pos;
        Ordering.Evaluator.on_text evaluator content;
        let lvl = level () + 1 in
        let entry = Entry.Text { level = lvl; pos = !pos; content } in
        emit entry (component lvl Key.Null !pos)
    | Some (Xmlio.Event.End _) ->
        ignore (Ordering.Evaluator.on_end evaluator);
        (match !stack with
        | _ :: rest -> stack := rest
        | [] -> ());
        next ()
  in
  next

let sort_device ?(config = Config.make ()) ~ordering ~input ~output () =
  if not (Ordering.all_scan_evaluable ordering) then
    invalid_arg "Keypath_sort: ordering must be scan-evaluable";
  let t0 = Unix.gettimeofday () in
  let dict = Xmlio.Dict.create () in
  let budget =
    Extmem.Memory_budget.create ~blocks:config.Config.memory_blocks
      ~block_size:config.Config.block_size
  in
  let counters = ref (0, 0) in
  (* the scan pipeline stage owns the input buffer *)
  let scan_src =
    Pipe.source ~mem:1 ~who:"keypath scan" (fun () ->
        let parser =
          Xmlio.Parser.of_reader
            ~keep_whitespace:config.Config.keep_whitespace
            (Extmem.Block_reader.of_device input)
        in
        (record_stream ~config ~ordering ~dict parser counters, ignore))
  in
  let temp = Config.scratch_device config ~name:"temp" in
  let enc = config.Config.encoding in
  (* reconstruction sink: sorted key-path order is the sorted document's
     pre-order; end tags come back from level transitions (§3.2).  The
     close flushes whole blocks before validating writer depth. *)
  let recon_sink =
    Pipe.sink ~mem:1 ~who:"xml reconstruction" (fun () ->
        let bw = Extmem.Block_writer.create output in
        let writer = Xmlio.Writer.to_block_writer bw in
        let opens = Extmem.Vec.create () in
        let close_to level =
          while Extmem.Vec.length opens > 0 && snd (Extmem.Vec.top opens) >= level do
            let name, _ = Extmem.Vec.pop opens in
            Xmlio.Writer.event writer (Xmlio.Event.End name)
          done
        in
        let push record =
          match Entry.decode enc dict (Keypath.decode_payload record) with
          | Entry.Start { name; attrs; level; _ } ->
              close_to level;
              Xmlio.Writer.event writer (Xmlio.Event.Start (name, attrs));
              Extmem.Vec.push opens (name, level)
          | Entry.Text { content; level; _ } ->
              close_to level;
              Xmlio.Writer.event writer (Xmlio.Event.Text content)
          | Entry.End _ | Entry.Run_ptr _ -> assert false
        in
        let close () =
          close_to 1;
          let extent = Extmem.Block_writer.close bw in
          Extmem.Device.set_byte_length output extent.Extmem.Extent.bytes;
          Xmlio.Writer.close writer
        in
        (push, close))
  in
  let io_meter () =
    Extmem.Io_stats.add
      (Extmem.Io_stats.snapshot (Extmem.Device.stats input))
      (Extmem.Io_stats.add
         (Extmem.Io_stats.snapshot (Extmem.Device.stats temp))
         (Extmem.Io_stats.snapshot (Extmem.Device.stats output)))
  in
  let spans = Obs.Spans.create ~io:io_meter "keypath_sort" in
  (* scan, run formation, merging and reconstruction are one pipeline here:
     records are pulled from the parser and sorted output is reconstructed
     on the fly, so they share one phase span *)
  let stats =
    Obs.Spans.with_span spans "scan_sort_reconstruct" (fun () ->
        let src = Pipe.open_source ~spans ~budget scan_src in
        let o =
          try
            Extsort.External_sort.sort_open ~budget ~temp ~cmp:Keypath.compare_encoded
              ~input:src.Pipe.pull ()
          with e ->
            src.Pipe.close ();
            raise e
        in
        (* run formation consumed the whole input; give its buffer back
           before the reconstruction sink reserves the output buffer *)
        src.Pipe.close ();
        Pipe.run_opened ~spans ~budget
          { Pipe.pull = o.Extsort.External_sort.pull; close = o.Extsort.External_sort.close }
          recon_sink;
        o.Extsort.External_sort.stats)
  in
  let input_io = Extmem.Io_stats.snapshot (Extmem.Device.stats input) in
  let temp_io = Extmem.Io_stats.snapshot (Extmem.Device.stats temp) in
  let output_io = Extmem.Io_stats.snapshot (Extmem.Device.stats output) in
  let n_records, record_bytes = !counters in
  {
    records = n_records;
    record_bytes;
    initial_runs = stats.Extsort.External_sort.initial_runs;
    merge_passes = stats.Extsort.External_sort.merge_passes;
    input_io;
    temp_io;
    output_io;
    total_io = Extmem.Io_stats.add input_io (Extmem.Io_stats.add temp_io output_io);
    wall_seconds = Unix.gettimeofday () -. t0;
    spans = Obs.Spans.close spans;
  }

let sort_string ?config ~ordering s =
  let config = Option.value config ~default:(Config.make ()) in
  let input = Config.scratch_device config ~name:"input" in
  Extmem.Device.load_string input s;
  let output = Config.scratch_device config ~name:"output" in
  let report = sort_device ~config ~ordering ~input ~output () in
  (Extmem.Device.contents output, report)

let keypath_table ~ordering s =
  if not (Ordering.all_scan_evaluable ordering) then
    invalid_arg "Keypath_sort.keypath_table: ordering must be scan-evaluable";
  let parser = Xmlio.Parser.of_string s in
  let evaluator = Ordering.Evaluator.create ordering in
  let stack = ref [] in
  let rows = ref [] in
  let rec go () =
    match Xmlio.Parser.next parser with
    | None -> ()
    | Some (Xmlio.Event.Start (name, attrs)) ->
        let key = Option.get (Ordering.Evaluator.on_start evaluator name attrs) in
        stack := { Keypath.key; pos = 0 } :: !stack;
        let tag =
          Printf.sprintf "<%s%s>" name
            (String.concat ""
               (List.map (fun (k, v) -> Printf.sprintf " %s=\"%s\"" k (Xmlio.Escape.escape_attr v)) attrs))
        in
        (* Table 1 omits the root's own key: the root row reads "/" *)
        let display_path =
          match List.rev !stack with
          | _root :: rest -> rest
          | [] -> []
        in
        rows := (Keypath.path_to_string display_path, tag) :: !rows;
        go ()
    | Some (Xmlio.Event.Text content) ->
        Ordering.Evaluator.on_text evaluator content;
        (match !rows with
        | (path, tag) :: rest -> rows := (path, tag ^ Xmlio.Escape.escape_text content) :: rest
        | [] -> ());
        go ()
    | Some (Xmlio.Event.End _) ->
        ignore (Ordering.Evaluator.on_end evaluator);
        (match !stack with
        | _ :: rest -> stack := rest
        | [] -> ());
        go ()
  in
  go ();
  List.rev !rows
