(* Shared cmdliner terms for the NEXSORT command-line tools. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* The endpoints of a two-document job: block devices over the [left]
   and [right] files and the [output] file, under the config's layers;
   the output replaces its file only when [f] returns.  Returns [f]'s
   result and the three devices, for the job's report. *)
let with_merge_endpoints config ~left ~right ~output f =
  let dev (b : Extmem.Device_spec.built) = b.Extmem.Device_spec.device in
  Nexsort.Config.with_input ~name:"left" config left (fun l ->
      Nexsort.Config.with_input ~name:"right" config right (fun r ->
          Nexsort.Config.with_output config output (fun o ->
              let l = dev l and r = dev r and o = dev o in
              (f ~left:l ~right:r ~output:o, (l, r, o)))))

(* A session's block I/O by component, and in total: a merge report's
   account of one of its sorts. *)
let sort_io (s : Nexsort.Session.t) =
  let io = Obs.Json.io_stats in
  Obs.Json.Obj
    (List.map (fun (n, st) -> (n, io st)) (Nexsort.Session.io_breakdown s)
    @ [ ("total", io (Nexsort.Session.total_io s)) ])

(* A merge job's report, the same in every tool: the pass's counts and
   phases, and the I/O of the job's three endpoints and, when it sorted
   its inputs on a session pair ([sorts], read after the job), of each
   sort. *)
let merge_report ?(tool = "nexsort-merge") ?sorts (r : Xmerge.Struct_merge.report)
    (left, right, output) =
  let rep = Obs.Report.create ~tool in
  Obs.Report.add rep "counts"
    (Obs.Json.Obj
       [ ("left_events", Obs.Json.Int r.Xmerge.Struct_merge.left_events);
         ("right_events", Obs.Json.Int r.Xmerge.Struct_merge.right_events);
         ("output_events", Obs.Json.Int r.Xmerge.Struct_merge.output_events);
         ("matched_elements", Obs.Json.Int r.Xmerge.Struct_merge.matched_elements) ]);
  Obs.Report.add rep "phases" (Obs.Span.to_json r.Xmerge.Struct_merge.spans);
  let io d = Obs.Json.io_stats (Extmem.Io_stats.snapshot (Extmem.Device.stats d)) in
  let sorts =
    match sorts with
    | Some (l, r) -> [ ("left_sort", sort_io l); ("right_sort", sort_io r) ]
    | None -> []
  in
  Obs.Report.add rep "io"
    (Obs.Json.Obj ([ ("left", io left); ("right", io right); ("output", io output) ] @ sorts));
  rep

(* Incremental maintenance over a job's [session]: sort the [base] file
   into an Xmerge.Ingest, apply each [updates] file as an update
   document, flushing after every [flush_every] documents (and once at
   the end), then write the base to [output].  The job's cancellation
   poll runs before each document.  [on_flush n r] sees flush [n]'s
   report.  Returns the flush reports in order and the indexed key
   count. *)
let ingest_files ~session ~ordering ~flush_every ~on_flush ~base ~updates output =
  let config = session.Nexsort.Session.config in
  let t =
    Nexsort.Config.with_input config base (fun b ->
        Xmerge.Ingest.create_device ~session ~ordering ~base:b.Extmem.Device_spec.device ())
  in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      let flushes = ref [] in
      let flush () =
        let r = Xmerge.Ingest.flush t in
        flushes := r :: !flushes;
        on_flush (List.length !flushes) r
      in
      List.iteri
        (fun i path ->
          session.Nexsort.Session.poll ();
          Xmerge.Ingest.add_update t (read_file path);
          if (i + 1) mod flush_every = 0 then flush ())
        updates;
      if Xmerge.Ingest.pending t > 0 || !flushes = [] then flush ();
      let base = Xmerge.Ingest.base_device t in
      Nexsort.Config.with_output config output (fun o ->
          Extmem.Device.copy ~src:base ~dst:o.Extmem.Device_spec.device);
      (List.rev !flushes, Xmerge.Ingest.index_keys t))

(* An ingest job's report, the same in every tool: totals over its
   [flushes], one entry per flush, and the flushes' block I/O. *)
let ingest_report ~update_docs (flushes, indexed_keys) =
  let total f = List.fold_left (fun acc r -> acc + f r) 0 flushes in
  let flush_io f = total (fun r -> f r.Xmerge.Ingest.flush_io) in
  let rep = Obs.Report.create ~tool:"nexsort-merge-ingest" in
  Obs.Report.add rep "counts"
    (Obs.Json.Obj
       [ ("update_docs", Obs.Json.Int update_docs);
         ("flushes", Obs.Json.Int (List.length flushes));
         ("batch_ops", Obs.Json.Int (total (fun r -> r.Xmerge.Ingest.batch_ops)));
         ("index_dropped", Obs.Json.Int (total (fun r -> r.Xmerge.Ingest.index_dropped)));
         ("indexed_keys", Obs.Json.Int indexed_keys) ]);
  Obs.Report.add rep "ingest" (Obs.Json.List (List.map Xmerge.Ingest.flush_report_json flushes));
  Obs.Report.add rep "io"
    (Obs.Json.Obj
       [ ("flush_reads", Obs.Json.Int (flush_io (fun s -> s.Extmem.Io_stats.reads)));
         ("flush_writes", Obs.Json.Int (flush_io (fun s -> s.Extmem.Io_stats.writes))) ]);
  rep

let ordering_term =
  let doc =
    "Ordering specification: comma-separated $(b,tag=criterion) rules plus an optional default \
     criterion, where a criterion is $(b,tag), $(b,doc), $(b,text), $(b,@attr) or a \
     $(b,a/b/c) descendant path.  Example: \
     $(b,@id,region=@name,employee=personalInfo/name)."
  in
  let parse s =
    match Nexsort.Ordering.of_spec_string s with
    | o -> Ok o
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  let pp ppf _ = Format.pp_print_string ppf "<ordering>" in
  Arg.(
    value
    & opt (conv (parse, pp)) (Nexsort.Ordering.by_attr "id")
    & info [ "ordering"; "O" ] ~docv:"SPEC" ~doc)

let encoding_term =
  let encodings =
    [ ("plain", Nexsort.Config.Plain); ("dict", Nexsort.Config.Dict);
      ("packed", Nexsort.Config.Packed) ]
  in
  Arg.(
    value
    & opt (some (Arg.enum encodings)) None
    & info [ "encoding" ] ~docv:"ENC"
        ~doc:"Entry encoding: $(b,plain), $(b,dict) (name compression) or $(b,packed) (dict + \
              end-tag elimination; scan-evaluable orderings only).  Default: $(b,packed) when \
              every key of the ordering is known at its start tag (no $(b,text) or descendant \
              path criterion), $(b,dict) otherwise.")

let no_fuse_term =
  Arg.(
    value & flag
    & info [ "no-fuse" ]
        ~doc:
          "Disable pipeline fusion across phase boundaries: materialise the root's sorted run \
           (and, for merges, each sorted document) instead of streaming it straight into the \
           next phase.")

let config_term =
  let block_size =
    Arg.(
      value & opt int 4096
      & info [ "block-size"; "B" ] ~docv:"BYTES" ~doc:"Block size in bytes (the model's B).")
  in
  let memory_blocks =
    Arg.(
      value & opt int 64
      & info [ "memory"; "M" ] ~docv:"BLOCKS"
          ~doc:"Internal memory budget in blocks (the model's M/B).")
  in
  let threshold =
    Arg.(
      value & opt (some int) None
      & info [ "threshold"; "t" ] ~docv:"BYTES"
          ~doc:"Sort threshold t in bytes (default: twice the block size).")
  in
  let depth_limit =
    Arg.(
      value & opt (some int) None
      & info [ "depth-limit"; "d" ] ~docv:"LEVEL"
          ~doc:"Sort only down to this level (root = 1); deeper subtrees keep document order.")
  in
  let no_degeneration =
    Arg.(
      value & flag
      & info [ "no-degeneration" ]
          ~doc:"Disable graceful degeneration into external merge sort on flat inputs.")
  in
  let keep_whitespace =
    Arg.(value & flag & info [ "keep-whitespace" ] ~doc:"Preserve whitespace-only text nodes.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Ignored; must be between 1 and 64.  Every sort runs on one domain: subtree sorts \
             on worker domains were slower than on one and were removed.  The flag stays so \
             that scripts which pass it (the perf ledger's traced runs pass $(b,--jobs 2)) \
             keep working.")
  in
  let build block_size memory_blocks threshold depth_limit no_degeneration keep_whitespace no_fuse
      encoding ordering jobs =
    (* Config.make rejects inconsistent sizes; surface that as a clean
       one-line CLI error instead of an uncaught exception *)
    if jobs < 1 || jobs > 64 then Error "option '--jobs': must be between 1 and 64"
    else
      match
        Nexsort.Config.make ~block_size ~memory_blocks ?threshold ?depth_limit
          ~degeneration:(not no_degeneration) ~root_fusion:(not no_fuse) ?encoding ~ordering
          ~keep_whitespace ()
      with
      | config -> Ok config
      | exception Invalid_argument msg -> Error msg
  in
  Term.term_result'
    Term.(
      const build $ block_size $ memory_blocks $ threshold $ depth_limit $ no_degeneration
      $ keep_whitespace $ no_fuse_term $ encoding_term $ ordering_term $ jobs)

let device_term =
  let parse s =
    match Extmem.Device_spec.parse s with
    | spec -> Ok spec
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  let pp ppf s = Format.pp_print_string ppf (Extmem.Device_spec.to_string s) in
  Arg.(
    value
    & opt (some (conv (parse, pp))) None
    & info [ "device" ] ~docv:"SPEC"
        ~doc:
          "Device specification: zero or more layers, then a backend — e.g. $(b,mem), \
           $(b,file:PATH), $(b,traced/mem), $(b,faulty:p=0.001,seed=42/file:PATH).  The \
           input and output are always block devices over the named files themselves, read and \
           written a block at a time; the backend holds the internal devices only (stacks, runs, \
           temporary storage; $(b,file:PATH) puts each in $(b,PATH.NAME)).  The layers go over \
           every device, the files included.  $(b,traced) records the access pattern (its seeks \
           and sequential fraction are reported with $(b,--stats)) and sees only I/Os that \
           completed.  $(b,faulty) injects seeded random faults beneath it, so a faulted I/O is \
           neither counted nor traced; only the order of $(b,faulty) layers among themselves \
           matters.  A failed run leaves the output file as it was.")

let pp_io name (s : Extmem.Io_stats.t) =
  Printf.eprintf "  %-24s %8d reads %8d writes\n" name s.Extmem.Io_stats.reads
    s.Extmem.Io_stats.writes

let pp_pager name (s : Extmem.Btree.stats) =
  Printf.eprintf "  %-24s %8d hits  %8d misses  %8d evictions  %8d writebacks\n" name s.hits
    s.misses s.evictions s.writebacks

let metrics_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a machine-readable JSON run report to $(docv) ($(b,-) for stdout; a \
           $(b,.ndjson) path selects newline-delimited JSON, one section per line).")

let write_metrics metrics report =
  Option.iter (fun path -> Obs.Report.write_file report path) metrics

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event timeline of the run to $(docv) (open in Perfetto or \
           chrome://tracing; analyse offline with $(b,nextrace)).  Spans, counters and \
           per-I/O latencies are recorded into bounded per-domain ring buffers; overflow \
           drops events (counted) rather than blocking.")

(* Fail before doing any work if the trace path cannot be written, so a
   bad --trace dies with a one-line error instead of a completed sort
   followed by a crash at flush time. *)
let prepare_trace = function
  | None -> Ok Obs.Tracer.null
  | Some path -> (
      match open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path with
      | oc ->
          close_out oc;
          Ok (Obs.Tracer.create ())
      | exception Sys_error msg -> Error msg)

let write_trace trace tracer =
  Option.iter (fun path -> Obs.Tracer.write_file tracer path) trace
