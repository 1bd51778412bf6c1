(* nexsort-merge: sort two XML documents and structurally merge them in a
   single pass (Example 1.1), or apply a batch-update document. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let ordering_term =
  let parse s =
    match Nexsort.Ordering.of_spec_string s with
    | o -> Ok o
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.(
    value
    & opt (conv (parse, fun ppf _ -> Format.pp_print_string ppf "<ordering>"))
        (Nexsort.Ordering.by_attr "id")
    & info [ "ordering"; "O" ] ~docv:"SPEC"
        ~doc:"Ordering specification (see $(b,nexsort --help)); must be scan-evaluable.")

let policy_term =
  let policies =
    List.map
      (fun p -> (Extmem.Frame_arena.policy_to_string p, p))
      Extmem.Frame_arena.all_policies
  in
  Arg.(
    value
    & opt (Arg.enum policies) Extmem.Frame_arena.Lru
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "With $(b,--indexed): replacement policy of the index B-tree's buffer pool, \
           $(b,lru), $(b,clock), $(b,mru) or $(b,stack) (evict the lowest block index).  The \
           merged output is identical under every policy; only the index pager counters move. \
           No other mode reads it.")

let struct_merge_report ~tool (r : Xmerge.Struct_merge.report) =
  let rep = Obs.Report.create ~tool in
  Obs.Report.add rep "counts"
    (Obs.Json.Obj
       [ ("left_events", Obs.Json.Int r.Xmerge.Struct_merge.left_events);
         ("right_events", Obs.Json.Int r.Xmerge.Struct_merge.right_events);
         ("output_events", Obs.Json.Int r.Xmerge.Struct_merge.output_events);
         ("matched_elements", Obs.Json.Int r.Xmerge.Struct_merge.matched_elements) ]);
  Obs.Report.add rep "phases" (Obs.Span.to_json r.Xmerge.Struct_merge.spans);
  rep

(* The fused sort+merge holds both its sort sessions at once, so it runs
   over a two-slot engine: two jobs admitted up front, each session
   carved from the shared engine budget.  [f] must consume both sessions
   (the merge destroys them on every exit path); release is idempotent
   leak accounting either way. *)
let with_merge_sessions ~(config : Nexsort.Config.t) f =
  let eng = Engine.for_config ~tracer:config.Nexsort.Config.tracer ~slots:2 config in
  Fun.protect
    ~finally:(fun () -> Engine.destroy eng)
    (fun () ->
      let jl = Engine.acquire ~name:"merge-left" eng ~tenant:"merge" config in
      let jr =
        try Engine.acquire ~name:"merge-right" eng ~tenant:"merge" config
        with e ->
          Engine.release eng jl;
          raise e
      in
      Fun.protect
        ~finally:(fun () ->
          Engine.release eng jl;
          Engine.release eng jr)
        (fun () ->
          let sl = Engine.session eng jl in
          let sr =
            try Engine.session eng jr
            with e ->
              Nexsort.Session.destroy sl;
              raise e
          in
          f (sl, sr)))

(* --ingest: keep the sorted base live under a stream of update
   documents through Xmerge.Ingest, flushing every [flush_every] docs
   (and once at the end).  Each flush gets its own entry in the metrics'
   "ingest" section: batch sizes, queue counters, merge I/O. *)
let run_ingest ~ordering ~config ~metrics ~finish base rights flush_every output =
  let t = Xmerge.Ingest.create ~config ~ordering ~base () in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      let flushes = ref [] in
      let flush () =
        let r = Xmerge.Ingest.flush t in
        flushes := r :: !flushes;
        Printf.eprintf
          "flush %d: %d ops from %d docs%s, %d index-dropped, io r=%d w=%d, base %dB\n"
          (List.length !flushes) r.Xmerge.Ingest.batch_ops r.Xmerge.Ingest.batch_docs
          (if r.Xmerge.Ingest.skipped then " (skipped)" else "")
          r.Xmerge.Ingest.index_dropped r.Xmerge.Ingest.flush_io.Extmem.Io_stats.reads
          r.Xmerge.Ingest.flush_io.Extmem.Io_stats.writes r.Xmerge.Ingest.base_bytes
      in
      List.iteri
        (fun i path ->
          Xmerge.Ingest.add_update t (read_file path);
          if (i + 1) mod flush_every = 0 then flush ())
        rights;
      if Xmerge.Ingest.pending t > 0 || !flushes = [] then flush ();
      write_file output (Xmerge.Ingest.contents t);
      let flushes = List.rev !flushes in
      let total f = List.fold_left (fun acc r -> acc + f r) 0 flushes in
      let rep = Obs.Report.create ~tool:"nexsort-merge-ingest" in
      Obs.Report.add rep "counts"
        (Obs.Json.Obj
           [ ("update_docs", Obs.Json.Int (List.length rights));
             ("flushes", Obs.Json.Int (List.length flushes));
             ("batch_ops", Obs.Json.Int (total (fun r -> r.Xmerge.Ingest.batch_ops)));
             ("index_dropped", Obs.Json.Int (total (fun r -> r.Xmerge.Ingest.index_dropped)));
             ("indexed_keys", Obs.Json.Int (Xmerge.Ingest.index_keys t)) ]);
      Obs.Report.add rep "ingest"
        (Obs.Json.List (List.map Xmerge.Ingest.flush_report_json flushes));
      Obs.Report.add rep "io"
        (Obs.Json.Obj
           [ ( "flush_reads",
               Obs.Json.Int (total (fun r -> r.Xmerge.Ingest.flush_io.Extmem.Io_stats.reads)) );
             ( "flush_writes",
               Obs.Json.Int (total (fun r -> r.Xmerge.Ingest.flush_io.Extmem.Io_stats.writes)) ) ]);
      Cli_common.write_metrics metrics rep;
      Printf.eprintf "ingested %d update docs in %d flushes -> %s\n" (List.length rights)
        (List.length flushes) output;
      finish (`Ok ()))

let run ordering presorted update_mode ingest_mode flush_every indexed policy device no_fuse
    metrics trace left_path right_paths output =
  match Cli_common.prepare_trace trace with
  | Error msg -> `Error (false, msg)
  | Ok tracer ->
  let finish ok =
    Cli_common.write_trace trace tracer;
    ok
  in
  try
    let left = read_file left_path in
    let right = match right_paths with r :: _ -> read_file r | [] -> "" in
    match device with
    | _ when ingest_mode && (update_mode || indexed || presorted) ->
        `Error (false, "--ingest does not compose with --update/--indexed/--presorted")
    | _ when flush_every < 1 -> `Error (false, "--flush-every must be >= 1")
    | _ when ingest_mode ->
        let config = Nexsort.Config.make ?device ~tracer () in
        run_ingest ~ordering ~config ~metrics ~finish left right_paths flush_every output
    | _ when List.length right_paths <> 1 ->
        `Error (false, "expected exactly one RIGHT document (or pass --ingest)")
    | _ when indexed && update_mode -> `Error (false, "--indexed is not supported with --update")
    | Some _ when update_mode -> `Error (false, "--device is not supported with --update")
    | _ when indexed ->
        (* Index-assisted nested-loop merge (§1's "additional index"): works
           on unsorted inputs; the index's buffer pool is where the pager
           statistics come from. *)
        let spec = Option.value device ~default:Extmem.Device_spec.default in
        let block_size = 4096 in
        let load name s =
          let d = Extmem.Device_spec.scratch spec ~name ~block_size in
          Extmem.Device.load_string d s;
          d
        in
        let ldev = load "left" left and rdev = load "right" right in
        let odev = Extmem.Device_spec.scratch spec ~name:"output" ~block_size in
        let r =
          Xmerge.Indexed_merge.merge_devices ~policy ~ordering ~left:ldev ~right:rdev ~output:odev
            ()
        in
        write_file output (Extmem.Device.contents odev);
        let open Xmerge.Indexed_merge in
        Printf.eprintf "matched %d elements via a %d-entry index -> %s\n" r.matched_elements
          r.index_entries output;
        Cli_common.pp_io "left" r.left_io;
        Cli_common.pp_io "right" r.right_io;
        Cli_common.pp_io "index" r.index_io;
        Cli_common.pp_io "output" r.output_io;
        Cli_common.pp_pager "index pager" ~hits:r.pager_hits ~misses:r.pager_misses
          ~evictions:r.pager_evictions ~writebacks:r.pager_writebacks;
        Cli_common.write_metrics metrics
          (let rep = Obs.Report.create ~tool:"nexsort-merge-indexed" in
           Obs.Report.add rep "counts"
             (Obs.Json.Obj
                [ ("matched_elements", Obs.Json.Int r.matched_elements);
                  ("index_entries", Obs.Json.Int r.index_entries) ]);
           Obs.Report.add rep "io"
             (Obs.Json.Obj
                [ ("left", Obs.Json.io_stats r.left_io);
                  ("right", Obs.Json.io_stats r.right_io);
                  ("index", Obs.Json.io_stats r.index_io);
                  ("index_build", Obs.Json.io_stats r.index_build_io);
                  ("output", Obs.Json.io_stats r.output_io);
                  ("total", Obs.Json.io_stats r.total_io) ]);
           Obs.Report.add rep "pager"
             (Obs.Json.Obj
                [ ("hits", Obs.Json.Int r.pager_hits);
                  ("misses", Obs.Json.Int r.pager_misses);
                  ("evictions", Obs.Json.Int r.pager_evictions);
                  ("writebacks", Obs.Json.Int r.pager_writebacks) ]);
           Obs.Report.add rep "phases" (Obs.Span.to_json r.spans);
           Obs.Report.add rep "timing"
             (Obs.Json.Obj [ ("wall_s", Obs.Json.Float r.wall_seconds) ]);
           rep);
        finish (`Ok ())
    | Some spec ->
        (* Device-resident path: the raw inputs live on spec-built devices
           and the sorts + single-pass merge run on top, so the chosen
           stack carries the whole job's I/O.  Fused (the default), the
           sorted documents are never materialised on the devices. *)
        let block_size = 4096 in
        let config = Nexsort.Config.make ~block_size ~device:spec ~tracer () in
        let load name s =
          let d = Extmem.Device_spec.scratch spec ~name ~block_size in
          Extmem.Device.load_string d s;
          d
        in
        let ldev = load "left" left and rdev = load "right" right in
        let odev = Extmem.Device_spec.scratch spec ~name:"output" ~block_size in
        let r =
          if presorted then
            Xmerge.Struct_merge.merge_devices ~ordering ~left:ldev ~right:rdev ~output:odev ()
          else
            with_merge_sessions ~config (fun sessions ->
                Xmerge.Struct_merge.sort_and_merge_devices ~config ~fuse:(not no_fuse) ~sessions
                  ~ordering ~left:ldev ~right:rdev ~output:odev ())
        in
        write_file output (Extmem.Device.contents odev);
        Cli_common.write_metrics metrics
          (let rep = struct_merge_report ~tool:"nexsort-merge" r in
           Obs.Report.add rep "io"
             (Obs.Json.Obj
                [ ("left", Obs.Json.io_stats (Extmem.Io_stats.snapshot (Extmem.Device.stats ldev)));
                  ("right", Obs.Json.io_stats (Extmem.Io_stats.snapshot (Extmem.Device.stats rdev)));
                  ("output", Obs.Json.io_stats (Extmem.Io_stats.snapshot (Extmem.Device.stats odev)))
                ]);
           rep);
        Printf.eprintf "matched %d elements, emitted %d events -> %s\n"
          r.Xmerge.Struct_merge.matched_elements r.Xmerge.Struct_merge.output_events output;
        let sim =
          Extmem.Device.simulated_ms ldev +. Extmem.Device.simulated_ms rdev
          +. Extmem.Device.simulated_ms odev
        in
        if sim > 0. then Printf.eprintf "merge simulated io time: %.2fms\n" sim;
        finish (`Ok ())
    | None ->
    let config = Nexsort.Config.make ~tracer () in
    let result, summary, rep =
      if update_mode then begin
        let out, r =
          if presorted then Xmerge.Batch_update.apply_strings ~ordering ~base:left ~updates:right
          else
            Xmerge.Batch_update.sort_and_apply_strings ~config ~ordering ~base:left
              ~updates:right ()
        in
        let rep =
          struct_merge_report ~tool:"nexsort-merge-update" r.Xmerge.Batch_update.merge
        in
        Obs.Report.add rep "updates"
          (Obs.Json.Obj
             [ ("deletes", Obs.Json.Int r.Xmerge.Batch_update.deletes);
               ("replaces", Obs.Json.Int r.Xmerge.Batch_update.replaces);
               ("unmatched_deletes", Obs.Json.Int r.Xmerge.Batch_update.unmatched_deletes) ]);
        ( out,
          Printf.sprintf "matched %d, deletes %d, replaces %d, no-op deletes %d"
            r.Xmerge.Batch_update.merge.Xmerge.Struct_merge.matched_elements
            r.Xmerge.Batch_update.deletes r.Xmerge.Batch_update.replaces
            r.Xmerge.Batch_update.unmatched_deletes,
          rep )
      end
      else begin
        let out, r =
          if presorted then Xmerge.Struct_merge.merge_strings ~ordering left right
          else if no_fuse then
            (* unfused strings sort in memory — no sessions to carve *)
            Xmerge.Struct_merge.sort_and_merge_strings ~config ~fuse:false ~ordering left right
          else
            with_merge_sessions ~config (fun sessions ->
                Xmerge.Struct_merge.sort_and_merge_strings ~config ~sessions ~ordering left
                  right)
        in
        ( out,
          Printf.sprintf "matched %d elements, emitted %d events"
            r.Xmerge.Struct_merge.matched_elements r.Xmerge.Struct_merge.output_events,
          struct_merge_report ~tool:"nexsort-merge" r )
      end
    in
    write_file output result;
    Cli_common.write_metrics metrics rep;
    Printf.eprintf "%s -> %s\n" summary output;
    finish (`Ok ())
  with
  | Xmlio.Parser.Error { line; col; msg } -> `Error (false, Printf.sprintf "%d:%d: %s" line col msg)
  | Xmlio.Tree.Malformed msg -> `Error (false, "malformed document: " ^ msg)
  | Xmerge.Struct_merge.Not_sorted msg -> `Error (false, "input not sorted: " ^ msg)
  | Extmem.Device.Fault (op, block) ->
      `Error
        ( false,
          Printf.sprintf "injected device fault: %s of block %d"
            (match op with Extmem.Device.Read -> "read" | Extmem.Device.Write -> "write")
            block )
  | Extmem.Memory_budget.Exhausted msg -> `Error (false, "memory budget exhausted: " ^ msg)
  | Sys_error msg -> `Error (false, msg)
  | Invalid_argument msg -> `Error (false, msg)

let cmd =
  let doc = "structurally merge two XML documents after sorting them (sort-merge join)" in
  let info = Cmd.info "nexsort-merge" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ ordering_term
        $ Arg.(
            value & flag
            & info [ "presorted" ] ~doc:"Inputs are already fully sorted; skip the sorting step.")
        $ Arg.(
            value & flag
            & info [ "update" ]
                ~doc:
                  "Treat the second document as a batch of updates (__op attributes: merge, \
                   delete, replace).")
        $ Arg.(
            value & flag
            & info [ "ingest" ]
                ~doc:
                  "Incremental maintenance: sort LEFT once, then apply every RIGHT document as \
                   a buffered update batch (__op markers as with $(b,--update)), flushing \
                   through the external priority queue instead of re-sorting.")
        $ Arg.(
            value & opt int 1
            & info [ "flush-every" ] ~docv:"N"
                ~doc:"With $(b,--ingest): flush the update queue after every N documents.")
        $ Arg.(
            value & flag
            & info [ "indexed" ]
                ~doc:
                  "Use the index-assisted nested-loop merge instead of sort-then-merge (works on \
                   unsorted inputs; reports the index buffer pool's hit/miss statistics).")
        $ policy_term
        $ Cli_common.device_term
        $ Cli_common.no_fuse_term
        $ Cli_common.metrics_term
        $ Cli_common.trace_term
        $ Arg.(required & pos 0 (some file) None & info [] ~docv:"LEFT")
        $ Arg.(value & pos_right 0 file [] & info [] ~docv:"RIGHT")
        $ Arg.(
            value & opt string "merged.xml" & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file.")))

let () = exit (Cmd.eval cmd)
