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
    & opt (Arg.enum encodings) Nexsort.Config.Dict
    & info [ "encoding" ] ~docv:"ENC"
        ~doc:"Entry encoding: $(b,plain), $(b,dict) (name compression) or $(b,packed) (dict + \
              end-tag elimination; scan-evaluable orderings only).")

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
            "Worker domains for parallel subtree sorting (1-64).  Output and I/O counters are \
             identical for every value; 1 (the default) runs fully single-threaded.")
  in
  let build block_size memory_blocks threshold depth_limit no_degeneration keep_whitespace no_fuse
      encoding jobs =
    (* Config.make rejects inconsistent sizes; surface that as a clean
       one-line CLI error instead of an uncaught exception *)
    match
      Nexsort.Config.make ~block_size ~memory_blocks ?threshold ?depth_limit
        ~degeneration:(not no_degeneration) ~root_fusion:(not no_fuse) ~encoding ~keep_whitespace
        ~jobs ()
    with
    | config -> Ok config
    | exception Invalid_argument msg -> Error msg
  in
  Term.term_result'
    Term.(
      const build $ block_size $ memory_blocks $ threshold $ depth_limit $ no_degeneration
      $ keep_whitespace $ no_fuse_term $ encoding_term $ jobs)

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
           $(b,file:PATH), $(b,traced/mem), $(b,faulty:p=0.001,seed=42/file:PATH), \
           $(b,cost:profile=hdd/mem).  $(b,traced) records the access pattern and $(b,cost) \
           charges simulated seek/transfer time (reported with $(b,--stats)); both see only \
           I/Os that completed.  $(b,faulty) injects seeded random faults beneath them, so a \
           faulted I/O is neither counted, traced nor charged; only the order of $(b,faulty) \
           layers among themselves matters.")

let pp_io name (s : Extmem.Io_stats.t) =
  Printf.eprintf "  %-24s %8d reads %8d writes\n" name s.Extmem.Io_stats.reads
    s.Extmem.Io_stats.writes

let pp_pager name ~hits ~misses ~evictions ~writebacks =
  Printf.eprintf "  %-24s %8d hits  %8d misses  %8d evictions  %8d writebacks\n" name hits misses
    evictions writebacks

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
           chrome://tracing; analyse offline with $(b,nextrace)).  Spans, per-worker tracks, \
           run installs and per-I/O latencies are recorded into bounded per-domain ring \
           buffers; overflow drops events (counted) rather than blocking.")

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
