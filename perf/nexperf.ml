(* nexperf: the end-to-end benchmark and per-layer ledger of NEXSORT.

     nexperf run [--workload W]... [--seed S] [--seconds N] [--trace 0|1]
     nexperf trace [--workload W]... [--seed S] [-o trace.json]
     nexperf compare BASE.json NEW.json
     nexperf run --smoke

   Each run generates its workload's inputs from the seed, drives the
   user-facing binaries (nexsort_cli, xmlmerge_cli --ingest, nexsortd) as
   child processes from this one single-threaded process, checks every
   output, and prints every metric with its unit; the last line of
   standard output is one JSON object with the verdict and the metrics.
   See perf/README.md for the metrics, the workloads and how to read the
   ledger. *)

open Cmdliner
open Nexperf_lib

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* The CLIs are built next to this executable: _build/default/{perf,bin}. *)
let default_bin_dir () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin"

let print_outcome (o : Run_ctx.outcome) =
  Printf.printf "%s %s (seed %d): %d checks, %d failed\n"
    (if o.Run_ctx.traced then "trace" else "run")
    (Workload.to_string o.Run_ctx.workload)
    o.Run_ctx.seed o.Run_ctx.attempted o.Run_ctx.failed;
  List.iteri (fun i e -> if i < 8 then Printf.printf "  FAILED: %s\n" e) o.Run_ctx.errors;
  List.iter print_endline o.Run_ctx.report;
  List.iter
    (fun (m : Run_ctx.metric) ->
      Printf.printf "  %-34s %16.6g %-6s %s\n" m.Run_ctx.name m.Run_ctx.value m.Run_ctx.unit_
        m.Run_ctx.note)
    o.Run_ctx.metrics

let run_one ~workdir ~tracer ~traced (ctx : Run_ctx.t) w =
  let dir =
    Filename.concat workdir (Printf.sprintf "%s-%d-%d" (Workload.to_string w) ctx.Run_ctx.seed (Unix.getpid ()))
  in
  (* a run that dies still ends with a verdict line: one failed check *)
  try Run_ctx.in_scratch dir (fun () -> if traced then Ledger.run ctx tracer w else E2e.run ctx w)
  with e ->
    let tally = Run_ctx.tally () in
    Run_ctx.check tally false ("nexperf: " ^ Printexc.to_string e);
    Run_ctx.outcome ~workload:w ~seed:ctx.Run_ctx.seed ~traced ~md5:"" tally []

(* --smoke: every workload at about 1/20 scale, traced and untraced. *)
let smoke ~bin_dir ~workdir ~benchmark =
  let spec = Results.read_benchmark benchmark in
  let ctx =
    { Run_ctx.bin_dir; scale = Workload.Smoke; seed = 1; seconds = 0.; corrupt = false }
  in
  let tracer = Obs.Tracer.create () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let value (o : Run_ctx.outcome) name =
    List.find_map (fun (m : Run_ctx.metric) -> if m.Run_ctx.name = name then Some m.Run_ctx.value else None)
      o.Run_ctx.metrics
  in
  let same_names what (o : Run_ctx.outcome) (specs : Results.spec list) =
    let want =
      List.sort compare (List.map (fun (s : Results.spec) -> (s.Results.name, s.Results.unit_)) specs)
    in
    let got =
      List.sort compare
        (List.map (fun (m : Run_ctx.metric) -> (m.Run_ctx.name, m.Run_ctx.unit_)) o.Run_ctx.metrics)
    in
    if want <> got then
      problem "%s: %s metrics emitted differ from %s" (Workload.to_string o.Run_ctx.workload) what benchmark
  in
  let clean (o : Run_ctx.outcome) =
    if o.Run_ctx.failed > 0 then
      problem "%s: %d of %d checks failed: %s" (Workload.to_string o.Run_ctx.workload) o.Run_ctx.failed
        o.Run_ctx.attempted (String.concat "; " o.Run_ctx.errors)
  in
  let runs =
    List.map
      (fun w ->
        let a = run_one ~workdir ~tracer ~traced:false ctx w in
        let b = run_one ~workdir ~tracer ~traced:false ctx w in
        let t = run_one ~workdir ~tracer ~traced:true ctx w in
        List.iter clean [ a; b; t ];
        same_names "end-to-end" a spec.Results.end_to_end;
        same_names "per-layer" t spec.Results.per_layer;
        if a.Run_ctx.md5 <> b.Run_ctx.md5 then problem "%s: one seed, two inputs" (Workload.to_string w);
        if value a "block_ios" <> value b "block_ios" then
          problem "%s: one seed, two block_ios" (Workload.to_string w);
        (w, a))
      Workload.all
  in
  (* a corrupted output must be counted as a failure, and the run must go
     on to its end *)
  let c = run_one ~workdir ~tracer ~traced:false { ctx with Run_ctx.corrupt = true } Workload.Deep in
  let a = List.assoc Workload.Deep runs in
  if c.Run_ctx.failed <> 1 then problem "corrupted output: %d failures counted, expected 1" c.Run_ctx.failed;
  if c.Run_ctx.attempted <> a.Run_ctx.attempted then
    problem "corrupted output: %d checks made, expected %d" c.Run_ctx.attempted a.Run_ctx.attempted;
  match !problems with
  | [] ->
      Printf.printf "nexperf smoke: ok (%s)\n"
        (String.concat ", "
           (List.map
              (fun (w, (o : Run_ctx.outcome)) ->
                Printf.sprintf "%s %d checks" (Workload.to_string w) o.Run_ctx.attempted)
              runs));
      0
  | ps ->
      List.iter (fun p -> Printf.printf "nexperf smoke: %s\n" p) (List.rev ps);
      1

let run workloads seed seeds seconds trace smoke_mode results update_baseline bin_dir workdir benchmark
    trace_out =
  let bin_dir = absolute (Option.value bin_dir ~default:(default_bin_dir ())) in
  let workdir = absolute workdir in
  if smoke_mode then exit (smoke ~bin_dir ~workdir ~benchmark);
  let traced = trace = 1 in
  let tracer = if traced then Obs.Tracer.create () else Obs.Tracer.null in
  let workloads = if workloads = [] then Workload.all else workloads in
  let outcomes =
    List.concat_map
      (fun seed ->
        List.map
          (fun w ->
            let ctx = { Run_ctx.bin_dir; scale = Workload.Full; seed; seconds; corrupt = false } in
            let o = run_one ~workdir ~tracer ~traced ctx w in
            print_outcome o;
            print_endline (Results.line o);
            o)
          workloads)
      (List.init seeds (fun i -> seed + i))
  in
  if traced then begin
    let path = absolute (Option.value trace_out ~default:(Filename.concat workdir "trace.json")) in
    Obs.Tracer.write_file tracer path;
    Printf.eprintf "nexperf: trace written to %s (read it with nextrace --top 20)\n" path
  end;
  Option.iter (fun p -> Results.write p outcomes) results;
  if update_baseline then begin
    Results.write "perf/baseline.json" outcomes;
    prerr_endline "nexperf: perf/baseline.json updated"
  end;
  exit (if List.exists (fun (o : Run_ctx.outcome) -> o.Run_ctx.failed > 0) outcomes then 1 else 0)

let workload_conv =
  Arg.conv
    ( (fun s ->
        match Workload.of_string s with
        | Some w -> Ok w
        | None -> Error (`Msg ("unknown workload " ^ s ^ " (deep, flat, ingest, tenants)"))),
      fun ppf w -> Format.pp_print_string ppf (Workload.to_string w) )

let workloads_t =
  Arg.(value & opt_all workload_conv [] & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run (repeatable; default all four).")

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Seed the inputs are generated from.")

let seeds_t =
  Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N" ~doc:"Run seeds S, S+1, ..., S+N-1.")

let seconds_t =
  Arg.(value & opt float 22. & info [ "seconds" ] ~docv:"N" ~doc:"Measuring time per run.")

let bin_dir_t =
  Arg.(value & opt (some string) None & info [ "bin-dir" ] ~docv:"DIR" ~doc:"Directory of the CLI executables.")

let workdir_t =
  Arg.(
    value & opt string ".nexperf"
    & info [ "workdir" ] ~docv:"DIR" ~doc:"Scratch directory for generated inputs and outputs.")

let benchmark_t =
  Arg.(value & opt string "BENCHMARK.json" & info [ "benchmark" ] ~docv:"FILE" ~doc:"Benchmark definition.")

let results_t =
  Arg.(value & opt (some string) None & info [ "results" ] ~docv:"FILE" ~doc:"Write every run to FILE (input of $(b,compare)).")

let run_cmd =
  let trace_t =
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1" ~doc:"1: the traced run (per-layer metrics and ledger).")
  in
  let smoke_t =
    Arg.(value & flag & info [ "smoke" ] ~doc:"All four workloads at about 1/20 scale, with self-checks.")
  in
  let update_t =
    Arg.(value & flag & info [ "update-baseline" ] ~doc:"Write the runs to perf/baseline.json.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"run workloads and print their metrics")
    Term.(
      const run $ workloads_t $ seed_t $ seeds_t $ seconds_t $ trace_t $ smoke_t $ results_t $ update_t
      $ bin_dir_t $ workdir_t $ benchmark_t $ const None)

let trace_cmd =
  let out_t = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Trace output file.") in
  let trace workloads seed seconds results bin_dir workdir benchmark out =
    run workloads seed 1 seconds 1 false results false bin_dir workdir benchmark out
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"traced run: per-layer metrics, the ledger and a trace file")
    Term.(const trace $ workloads_t $ seed_t $ seconds_t $ results_t $ bin_dir_t $ workdir_t $ benchmark_t $ out_t)

let compare_cmd =
  let compare benchmark base news =
    let b = Results.read_benchmark benchmark in
    exit (if Results.compare ~benchmark:b base news > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"compare two result files metric by metric against the bounds")
    Term.(
      const compare $ benchmark_t
      $ Arg.(required & pos 0 (some file) None & info [] ~docv:"BASE")
      $ Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW"))

let () =
  exit (Cmd.eval (Cmd.group (Cmd.info "nexperf" ~doc:"NEXSORT benchmark") [ run_cmd; trace_cmd; compare_cmd ]))
