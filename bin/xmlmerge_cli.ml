(* nexsort-merge: sort two XML documents and structurally merge them in a
   single pass (Example 1.1), or apply a batch-update document. *)

open Cmdliner

(* --ingest: keep the sorted base live under a stream of update
   documents through Xmerge.Ingest, flushing every [flush_every] docs
   (and once at the end).  Each flush gets its own entry in the metrics'
   "ingest" section: batch sizes, queue counters, merge I/O. *)
let run_ingest ~ordering ~config ~metrics ~finish base rights flush_every output =
  let on_flush n (r : Xmerge.Ingest.flush_report) =
    Printf.eprintf "flush %d: %d ops from %d docs%s, %d index-dropped, io r=%d w=%d, base %dB\n" n
      r.batch_ops r.batch_docs
      (if r.skipped then " (skipped)" else "")
      r.index_dropped r.flush_io.Extmem.Io_stats.reads r.flush_io.Extmem.Io_stats.writes
      r.base_bytes
  in
  let ((flushes, _) as ingested) =
    Engine.with_session config (fun session ->
        Cli_common.ingest_files ~session ~ordering ~flush_every ~on_flush ~base ~updates:rights
          output)
  in
  Cli_common.write_metrics metrics
    (Cli_common.ingest_report ~update_docs:(List.length rights) ingested);
  Printf.eprintf "ingested %d update docs in %d flushes -> %s\n" (List.length rights)
    (List.length flushes) output;
  finish (`Ok ())

let run ordering presorted update_mode ingest_mode flush_every indexed device no_fuse
    metrics trace left_path right_paths output =
  match Cli_common.prepare_trace trace with
  | Error msg -> `Error (false, msg)
  | Ok tracer ->
  let finish ok =
    Cli_common.write_trace trace tracer;
    ok
  in
  try
    let config = Nexsort.Config.make ?device ~ordering ~tracer () in
    match () with
    | _ when ingest_mode && (update_mode || indexed || presorted) ->
        `Error (false, "--ingest does not compose with --update/--indexed/--presorted")
    | _ when flush_every < 1 -> `Error (false, "--flush-every must be >= 1")
    | _ when ingest_mode ->
        run_ingest ~ordering ~config ~metrics ~finish left_path right_paths flush_every output
    | _ when List.length right_paths <> 1 ->
        `Error (false, "expected exactly one RIGHT document (or pass --ingest)")
    | _ when indexed && update_mode -> `Error (false, "--indexed is not supported with --update")
    | _ when indexed ->
        (* Index-assisted nested-loop merge (§1's "additional index"): works
           on unsorted inputs; the index's buffer pool, leased from the
           job's arena, is where the pager statistics come from. *)
        let r, _ =
          Cli_common.with_merge_endpoints config ~left:left_path ~right:(List.hd right_paths)
            ~output (fun ~left ~right ~output ->
              Engine.with_session config (fun session ->
                  Xmerge.Indexed_merge.merge_devices ~arena:session.Nexsort.Session.arena
                    ~ordering ~left ~right ~output ()))
        in
        let open Xmerge.Indexed_merge in
        Printf.eprintf "matched %d elements via a %d-entry index -> %s\n" r.matched_elements
          r.index_entries output;
        Cli_common.pp_io "left" r.left_io;
        Cli_common.pp_io "right" r.right_io;
        Cli_common.pp_io "index" r.index_io;
        Cli_common.pp_io "output" r.output_io;
        Cli_common.pp_pager "index pager" r.pager;
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
                [ ("hits", Obs.Json.Int r.pager.hits);
                  ("misses", Obs.Json.Int r.pager.misses);
                  ("evictions", Obs.Json.Int r.pager.evictions);
                  ("writebacks", Obs.Json.Int r.pager.writebacks) ]);
           Obs.Report.add rep "phases" (Obs.Span.to_json r.spans);
           Obs.Report.add rep "timing"
             (Obs.Json.Obj [ ("wall_s", Obs.Json.Float r.wall_seconds) ]);
           rep);
        finish (`Ok ())
    | _ ->
        (* Every other mode is one structural merge over the files'
           endpoint devices: a pass ([Struct_merge.merge], or
           [Batch_update.apply] for --update) over presorted inputs, or
           after sorting both on a session pair, fused unless --no-fuse. *)
        let merge pass =
          Cli_common.with_merge_endpoints config ~left:left_path ~right:(List.hd right_paths)
            ~output (fun ~left ~right ~output ->
              if presorted then
                (Xmerge.Struct_merge.merge_devices ~tracer ~pass ~ordering ~left ~right ~output (),
                 None)
              else
                Engine.with_session_pair config (fun sessions ->
                    ( Xmerge.Struct_merge.sort_and_merge_devices ~fuse:(not no_fuse) ~sessions
                        ~pass ~ordering ~left ~right ~output (),
                      Some sessions )))
        in
        let rep, summary =
          if update_mode then begin
            let (r, sorts), endpoints = merge Xmerge.Batch_update.apply in
            let open Xmerge.Batch_update in
            let rep =
              Cli_common.merge_report ~tool:"nexsort-merge-update" ?sorts r.merge endpoints
            in
            Obs.Report.add rep "updates"
              (Obs.Json.Obj
                 [ ("deletes", Obs.Json.Int r.deletes);
                   ("replaces", Obs.Json.Int r.replaces);
                   ("unmatched_deletes", Obs.Json.Int r.unmatched_deletes) ]);
            ( rep,
              Printf.sprintf "matched %d, deletes %d, replaces %d, no-op deletes %d"
                r.merge.Xmerge.Struct_merge.matched_elements r.deletes r.replaces
                r.unmatched_deletes )
          end
          else begin
            let (r, sorts), endpoints = merge Xmerge.Struct_merge.merge in
            ( Cli_common.merge_report ?sorts r endpoints,
              Printf.sprintf "matched %d elements, emitted %d events"
                r.Xmerge.Struct_merge.matched_elements r.Xmerge.Struct_merge.output_events )
          end
        in
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
        (const run $ Cli_common.ordering_term
        $ Arg.(
            value & flag
            & info [ "presorted" ] ~doc:"Inputs are already fully sorted; skip the sorting step.")
        $ Arg.(
            value & flag
            & info [ "update" ]
                ~doc:
                  "Treat the second document as a batch of updates (__op attributes: merge, \
                   delete, replace) and merge it into the first.  Like a plain merge it runs \
                   over the two files' devices, sorting both first unless $(b,--presorted), \
                   fused unless $(b,--no-fuse), under any $(b,--device).")
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
        $ Cli_common.device_term
        $ Cli_common.no_fuse_term
        $ Cli_common.metrics_term
        $ Cli_common.trace_term
        $ Arg.(required & pos 0 (some file) None & info [] ~docv:"LEFT")
        $ Arg.(value & pos_right 0 file [] & info [] ~docv:"RIGHT")
        $ Arg.(
            value & opt string "merged.xml" & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file.")))

let () = exit (Cmd.eval cmd)
