(* nexsort: sort an XML document in external memory.

   Reads INPUT, fully sorts it under the given ordering, writes OUTPUT.
   --algorithm selects NEXSORT (default), the key-path external merge sort
   baseline, or the internal-memory recursive sort; --stats prints the
   per-component I/O breakdown the paper's experiments measure. *)

open Cmdliner

type algorithm =
  | Nexsort_algo
  | Mergesort
  | Treesort
  | Xsort

let setup_logging verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let run verbose algorithm config ordering stats metrics trace targets select device input_path
    output_path =
  setup_logging verbose;
  match Cli_common.prepare_trace trace with
  | Error msg -> `Error (false, msg)
  | Ok tracer ->
  let spec = Option.value device ~default:Extmem.Device_spec.default in
  (* the spec's layers go over both endpoints, which are the input and
     output files themselves; its backend holds the internal devices *)
  let config = { config with Nexsort.Config.device = spec; tracer } in
  let on_files sort =
    Nexsort.Config.with_input config input_path (fun inp ->
        Nexsort.Config.with_output config output_path (fun out ->
            ( sort ~input:inp.Extmem.Device_spec.device ~output:out.Extmem.Device_spec.device,
              Some (inp, out) )))
  in
  let device_stats endpoints =
    if stats && device <> None then begin
      Printf.eprintf "device: %s\n" (Extmem.Device_spec.to_string spec);
      Option.iter
        (fun ((inp : Extmem.Device_spec.built), (out : Extmem.Device_spec.built)) ->
          (match inp.trace with
          | Some trace ->
              Printf.eprintf "input access pattern: %s\n"
                (Format.asprintf "%a" Extmem.Trace.pp_summary (Extmem.Trace.summarize trace))
          | None -> ());
          let sim =
            Extmem.Device.simulated_ms inp.device +. Extmem.Device.simulated_ms out.device
          in
          if sim > 0. then Printf.eprintf "endpoint simulated io time: %.2fms\n" sim)
        endpoints
    end
  in
  let describe = function
    | Nexsort_algo -> "nexsort"
    | Mergesort -> "key-path external merge sort"
    | Treesort -> "internal-memory recursive sort"
    | Xsort -> "one-level XSort"
  in
  try
    let t0 = Unix.gettimeofday () in
    let endpoints =
      match algorithm with
      | Nexsort_algo ->
          (* the single-job CLI is a one-job engine: same admission, carve
             and release machinery as nexsortd, zero queue wait *)
          let (report, job_section), endpoints =
            Engine.with_engine config (fun eng ->
                on_files (fun ~input ~output ->
                    let report, job =
                      Engine.run eng ~tenant:"cli" config (fun job session ->
                          (Nexsort.sort_device ~session ~ordering ~input ~output (), job))
                    in
                    (* snapshot after release, so the engine counters include
                       this job's completion and any leak it left *)
                    (report, Engine.job_json eng job)))
          in
          Cli_common.write_metrics metrics
            (let rep = Nexsort.metrics_report ~config report in
             Obs.Report.add rep "job" job_section;
             rep);
          if stats then begin
            Printf.eprintf "algorithm: %s\n" (describe algorithm);
            Printf.eprintf "%s\n" (Format.asprintf "%a" Nexsort.pp_report report);
            List.iter (fun (n, s) -> Cli_common.pp_io n s) report.Nexsort.breakdown
          end;
          endpoints
      | Mergesort ->
          let report, endpoints =
            on_files (Baselines.Keypath_sort.sort_device ~config ~ordering ())
          in
          Cli_common.write_metrics metrics
            (let open Baselines.Keypath_sort in
             let rep = Obs.Report.create ~tool:"nexsort-mergesort" in
             Obs.Report.add rep "counts"
               (Obs.Json.Obj
                  [ ("records", Obs.Json.Int report.records);
                    ("record_bytes", Obs.Json.Int report.record_bytes);
                    ("initial_runs", Obs.Json.Int report.initial_runs);
                    ("merge_passes", Obs.Json.Int report.merge_passes) ]);
             Obs.Report.add rep "io"
               (Obs.Json.Obj
                  [ ("input", Obs.Json.io_stats report.input_io);
                    ("temp", Obs.Json.io_stats report.temp_io);
                    ("output", Obs.Json.io_stats report.output_io);
                    ("total", Obs.Json.io_stats report.total_io) ]);
             Obs.Report.add rep "phases" (Obs.Span.to_json report.spans);
             Obs.Report.add rep "timing"
               (Obs.Json.Obj
                  [ ("wall_s", Obs.Json.Float report.wall_seconds);
                    ("simulated_ms", Obs.Json.Float report.simulated_ms) ]);
             rep);
          if stats then begin
            Printf.eprintf "algorithm: %s\n" (describe algorithm);
            Printf.eprintf "records: %d (%d bytes), runs: %d, merge passes: %d, wall: %.3fs\n"
              report.Baselines.Keypath_sort.records report.Baselines.Keypath_sort.record_bytes
              report.Baselines.Keypath_sort.initial_runs report.Baselines.Keypath_sort.merge_passes
              report.Baselines.Keypath_sort.wall_seconds;
            Cli_common.pp_io "input" report.Baselines.Keypath_sort.input_io;
            Cli_common.pp_io "temp" report.Baselines.Keypath_sort.temp_io;
            Cli_common.pp_io "output" report.Baselines.Keypath_sort.output_io
          end;
          endpoints
      | Xsort ->
          let selector = Option.map Xmlio.Xpath.parse select in
          let targets =
            match targets with
            | Some t -> String.split_on_char ',' t
            | None -> []
          in
          let report, endpoints =
            on_files (Baselines.Xsort.sort_device ~config ?selector ~ordering ~targets ())
          in
          Cli_common.write_metrics metrics
            (let open Baselines.Xsort in
             let rep = Obs.Report.create ~tool:"nexsort-xsort" in
             Obs.Report.add rep "counts"
               (Obs.Json.Obj
                  [ ("targets_sorted", Obs.Json.Int report.targets_sorted);
                    ("children_sorted", Obs.Json.Int report.children_sorted);
                    ("spilled_sorts", Obs.Json.Int report.spilled_sorts) ]);
             Obs.Report.add rep "io"
               (Obs.Json.Obj
                  [ ("input", Obs.Json.io_stats report.input_io);
                    ("temp", Obs.Json.io_stats report.temp_io);
                    ("output", Obs.Json.io_stats report.output_io);
                    ("total", Obs.Json.io_stats report.total_io) ]);
             Obs.Report.add rep "timing"
               (Obs.Json.Obj [ ("wall_s", Obs.Json.Float report.wall_seconds) ]);
             rep);
          if stats then begin
            Printf.eprintf "algorithm: %s\n" (describe algorithm);
            Printf.eprintf "targets sorted: %d, children sorted: %d, spilled sorts: %d, wall: %.3fs\n"
              report.Baselines.Xsort.targets_sorted report.Baselines.Xsort.children_sorted
              report.Baselines.Xsort.spilled_sorts report.Baselines.Xsort.wall_seconds;
            Cli_common.pp_io "input" report.Baselines.Xsort.input_io;
            Cli_common.pp_io "temp" report.Baselines.Xsort.temp_io;
            Cli_common.pp_io "output" report.Baselines.Xsort.output_io
          end;
          endpoints
      | Treesort ->
          (* the internal-memory reference reads the whole document *)
          let xml = Cli_common.read_file input_path in
          let sorted =
            Baselines.Tree_sort.sort_string
              ?depth_limit:config.Nexsort.Config.depth_limit
              ~keep_whitespace:config.Nexsort.Config.keep_whitespace ordering xml
          in
          Cli_common.write_file output_path sorted;
          Cli_common.write_metrics metrics
            (let rep = Obs.Report.create ~tool:"nexsort-treesort" in
             Obs.Report.add rep "timing"
               (Obs.Json.Obj [ ("wall_s", Obs.Json.Float (Unix.gettimeofday () -. t0)) ]);
             rep);
          if stats then
            Printf.eprintf "algorithm: %s\nwall: %.3fs\n" (describe algorithm)
              (Unix.gettimeofday () -. t0);
          None
    in
    device_stats endpoints;
    Cli_common.write_trace trace tracer;
    `Ok ()
  with
  | Xmlio.Parser.Error { line; col; msg } ->
      `Error (false, Printf.sprintf "%s:%d:%d: %s" input_path line col msg)
  | Xmlio.Xpath.Parse_error msg -> `Error (false, "bad --select path: " ^ msg)
  | Extmem.Device.Fault (op, block) ->
      `Error
        ( false,
          Printf.sprintf "injected device fault: %s of block %d"
            (match op with Extmem.Device.Read -> "read" | Extmem.Device.Write -> "write")
            block )
  | Extmem.Memory_budget.Exhausted msg -> `Error (false, "memory budget exhausted: " ^ msg)
  | Sys_error msg -> `Error (false, msg)
  | Invalid_argument msg -> `Error (false, msg)

let algorithm_term =
  Arg.(
    value
    & opt
        (enum
           [ ("nexsort", Nexsort_algo); ("mergesort", Mergesort); ("treesort", Treesort);
             ("xsort", Xsort) ])
        Nexsort_algo
    & info [ "algorithm"; "a" ] ~docv:"ALGO"
        ~doc:
          "Sorting algorithm: $(b,nexsort) (default), $(b,mergesort) (key-path external merge \
           sort), $(b,treesort) (internal-memory recursive sort) or $(b,xsort) (one-level \
           sorting of target elements; see $(b,--targets)/$(b,--select)).")

let input_term = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT")

let output_term =
  Arg.(
    value & opt string "sorted.xml" & info [ "output"; "o" ] ~docv:"OUTPUT" ~doc:"Output file.")

let targets_term =
  Arg.(
    value & opt (some string) None
    & info [ "targets" ] ~docv:"TAG,TAG,..."
        ~doc:"For $(b,--algorithm xsort): sort the children of elements with these tags.")

let select_term =
  Arg.(
    value & opt (some string) None
    & info [ "select" ] ~docv:"PATH"
        ~doc:
          "For $(b,--algorithm xsort): sort the children of elements matched by this path \
           expression, e.g. $(b,//branch[@name='Durham']).")

let stats_term =
  Arg.(value & flag & info [ "stats"; "s" ] ~doc:"Print timing and I/O statistics to stderr.")

let verbose_term =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log the sorter's internal decisions.")

let cmd =
  let doc = "sort an XML document in external memory (NEXSORT, ICDE 2004)" in
  let info = Cmd.info "nexsort" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ verbose_term $ algorithm_term $ Cli_common.config_term
       $ Cli_common.ordering_term $ stats_term $ Cli_common.metrics_term
       $ Cli_common.trace_term $ targets_term $ select_term $ Cli_common.device_term
       $ input_term $ output_term))

let () = exit (Cmd.eval cmd)
