(* nexsortd: a long-lived multi-tenant sort daemon over one Engine.

   Requests are newline-delimited commands — read from a job file, stdin
   or a Unix socket — whose arguments reuse the nexsort CLI surface
   (Cmdliner terms, Device_spec strings, ordering specs):

     sort   [FLAGS] INPUT -o OUTPUT [--tenant T] [--metrics FILE]
     merge  [FLAGS] LEFT RIGHT -o OUTPUT [--tenant T] [--metrics FILE]
     update [FLAGS] BASE UPDATE... -o OUTPUT [--flush-every N]
     status
     cancel ID
     wait
     quit

   sort/merge submit a job and return immediately ("[ID] queued ...");
   the job runs on its own domain through the engine's admission queue,
   so a budget too small for the submitted set exercises queuing, not
   failure.  "wait" (and end of input) joins every job and reports each
   outcome in submission order — the deterministic sequence point the
   cram tests and check.sh gate on.  Malformed requests and cancels of
   unknown jobs are one-line errors with exit 124 (the CLI convention);
   end of input with jobs still queued is a clean shutdown: everything
   completes, then the summary and exit 0/1.

   The scheduler is the point, not the wire format: the socket mode
   serves the same line protocol to one client at a time. *)

open Cmdliner

type sort_req = {
  sr_config : Nexsort.Config.t;
  sr_ordering : Nexsort.Ordering.t;
  sr_metrics : string option;
  sr_tenant : string;
  sr_input : string;
  sr_output : string;
}

type merge_req = {
  mr_config : Nexsort.Config.t;
  mr_ordering : Nexsort.Ordering.t;
  mr_metrics : string option;
  mr_no_fuse : bool;
  mr_tenant : string;
  mr_left : string;
  mr_right : string;
  mr_output : string;
}

type update_req = {
  ur_config : Nexsort.Config.t;
  ur_ordering : Nexsort.Ordering.t;
  ur_metrics : string option;
  ur_tenant : string;
  ur_flush_every : int;
  ur_base : string;
  ur_updates : string list;
  ur_output : string;
}

type request =
  | Sort of sort_req
  | Merge of merge_req
  | Update of update_req

type outcome =
  | Done of string
  | Cancelled
  | Failed of string

type entry = {
  e_id : int;
  e_label : string;
  e_cancel : bool Atomic.t;
  e_domain : outcome Domain.t;
  mutable e_outcome : outcome option;  (* filled at join *)
  mutable e_reported : bool;
}

let tenant_term =
  Arg.(
    value & opt string "default"
    & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant the job is admitted and accounted under.")

let output_term =
  Arg.(value & opt string "sorted.xml" & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file.")

(* A request's config, its --device spec included. *)
let config_term =
  let with_device config device =
    { config with Nexsort.Config.device = Option.value device ~default:Extmem.Device_spec.default }
  in
  Term.(const with_device $ Cli_common.config_term $ Cli_common.device_term)

let sort_cmd =
  let build config ordering metrics tenant input output =
    `Ok
      (Sort
         {
           sr_config = config;
           sr_ordering = ordering;
           sr_metrics = metrics;
           sr_tenant = tenant;
           sr_input = input;
           sr_output = output;
         })
  in
  Cmd.v (Cmd.info "sort")
    Term.(
      ret
        (const build $ config_term $ Cli_common.ordering_term $ Cli_common.metrics_term
       $ tenant_term
       $ Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT")
       $ output_term))

let merge_cmd =
  let build config ordering metrics no_fuse tenant left right output =
    `Ok
      (Merge
         {
           mr_config = config;
           mr_ordering = ordering;
           mr_metrics = metrics;
           mr_no_fuse = no_fuse;
           mr_tenant = tenant;
           mr_left = left;
           mr_right = right;
           mr_output = output;
         })
  in
  Cmd.v (Cmd.info "merge")
    Term.(
      ret
        (const build $ config_term $ Cli_common.ordering_term $ Cli_common.metrics_term
       $ Cli_common.no_fuse_term $ tenant_term
       $ Arg.(required & pos 0 (some string) None & info [] ~docv:"LEFT")
       $ Arg.(required & pos 1 (some string) None & info [] ~docv:"RIGHT")
       $ output_term))

let update_cmd =
  let build config ordering metrics tenant flush_every base updates output =
    if flush_every < 1 then `Error (false, "--flush-every must be >= 1")
    else if updates = [] then `Error (false, "update: expected at least one UPDATE document")
    else
      `Ok
        (Update
           {
             ur_config = config;
             ur_ordering = ordering;
             ur_metrics = metrics;
             ur_tenant = tenant;
             ur_flush_every = flush_every;
             ur_base = base;
             ur_updates = updates;
             ur_output = output;
           })
  in
  let flush_every_term =
    Arg.(
      value & opt int 1
      & info [ "flush-every" ] ~docv:"N" ~doc:"Flush the update queue after every N documents.")
  in
  Cmd.v (Cmd.info "update")
    Term.(
      ret
        (const build $ config_term $ Cli_common.ordering_term $ Cli_common.metrics_term
       $ tenant_term $ flush_every_term
       $ Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE")
       $ Arg.(value & pos_right 0 string [] & info [] ~docv:"UPDATE")
       $ output_term))

(* Parse one request's arguments through its Cmdliner command, capturing
   the error report so a bad request is a single line, not a usage
   dump. *)
let eval_request cmd args =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let result =
    Cmd.eval_value ~err:fmt ~help:fmt ~argv:(Array.of_list (Cmd.name cmd :: args)) cmd
  in
  Format.pp_print_flush fmt ();
  match result with
  | Ok (`Ok v) -> Ok v
  | Ok (`Help | `Version) -> Error "help/version are not request commands"
  | Error _ ->
      let msg = String.trim (Buffer.contents buf) in
      let msg =
        match String.index_opt msg '\n' with
        | Some i -> String.sub msg 0 i
        | None -> msg
      in
      Error (if msg = "" then "bad request" else msg)

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

(* --- job bodies (run on their own domain) ------------------------- *)

let run_sort engine cancel (r : sort_req) =
  let config = r.sr_config in
  let report, job =
    Nexsort.Config.with_input config r.sr_input (fun inp ->
        Nexsort.Config.with_output config r.sr_output (fun out ->
            Engine.run ~cancel engine ~tenant:r.sr_tenant config (fun job session ->
                ( Nexsort.sort_device ~session ~ordering:r.sr_ordering
                    ~input:inp.Extmem.Device_spec.device ~output:out.Extmem.Device_spec.device (),
                  job ))))
  in
  Cli_common.write_metrics r.sr_metrics
    (let rep = Nexsort.metrics_report ~config report in
     Obs.Report.add rep "job" (Engine.job_json engine job);
     rep);
  Printf.sprintf "sort %s -> %s (%d events, %d subtree sorts)" r.sr_input r.sr_output
    report.Nexsort.events report.Nexsort.subtree_sorts

(* A fused merge holds two sessions at once: the engine admits the pair
   as one unit, so concurrent merges cannot deadlock holding one slot
   each. *)
let run_merge engine cancel (r : merge_req) =
  let config = r.mr_config in
  let (report, job), endpoints =
    Cli_common.with_merge_endpoints config ~left:r.mr_left ~right:r.mr_right ~output:r.mr_output
      (fun ~left ~right ~output ->
        Engine.run_pair ~name:"merge" ~cancel engine ~tenant:r.mr_tenant config
          (fun job sessions ->
            ( Xmerge.Struct_merge.sort_and_merge_devices ~fuse:(not r.mr_no_fuse) ~sessions
                ~pass:Xmerge.Struct_merge.merge ~ordering:r.mr_ordering ~left ~right ~output (),
              Engine.job_json engine job )))
  in
  Cli_common.write_metrics r.mr_metrics
    (let rep = Cli_common.merge_report report endpoints in
     Obs.Report.add rep "job" job;
     rep);
  Printf.sprintf "merge %s + %s -> %s (%d matched)" r.mr_left r.mr_right r.mr_output
    report.Xmerge.Struct_merge.matched_elements

(* Incremental maintenance: the initial base sort runs on the job's
   engine session; the ingest (queue + flush merges) then runs inside
   the same admission slot, so a long update stream is accounted like
   any other running job.  Cancellation is observed between update
   documents. *)
let run_update engine cancel (r : update_req) =
  let ((flushes, _) as ingested), job =
    Engine.run ~cancel engine ~tenant:r.ur_tenant r.ur_config (fun job session ->
        ( Cli_common.ingest_files ~session ~ordering:r.ur_ordering
            ~flush_every:r.ur_flush_every ~on_flush:(fun _ _ -> ()) ~base:r.ur_base
            ~updates:r.ur_updates r.ur_output,
          job ))
  in
  Cli_common.write_metrics r.ur_metrics
    (let rep = Cli_common.ingest_report ~update_docs:(List.length r.ur_updates) ingested in
     Obs.Report.add rep "job" (Engine.job_json engine job);
     rep);
  Printf.sprintf "update %s (%d docs, %d flushes) -> %s" r.ur_base (List.length r.ur_updates)
    (List.length flushes) r.ur_output

let job_body engine cancel request () =
  match
    match request with
    | Sort r -> run_sort engine cancel r
    | Merge r -> run_merge engine cancel r
    | Update r -> run_update engine cancel r
  with
  | summary -> Done summary
  | exception Engine.Cancelled -> Cancelled
  | exception Xmlio.Parser.Error { line; col; msg } ->
      Failed (Printf.sprintf "%d:%d: %s" line col msg)
  | exception Xmlio.Tree.Malformed msg -> Failed ("malformed document: " ^ msg)
  | exception Extmem.Memory_budget.Exhausted msg -> Failed ("memory budget exhausted: " ^ msg)
  | exception Extmem.Device.Fault (op, block) ->
      Failed
        (Printf.sprintf "injected device fault: %s of block %d"
           (match op with Extmem.Device.Read -> "read" | Extmem.Device.Write -> "write")
           block)
  | exception Sys_error msg -> Failed msg
  | exception Invalid_argument msg -> Failed msg
  | exception Xmerge.Struct_merge.Not_sorted msg -> Failed ("input not sorted: " ^ msg)

(* --- daemon state and line protocol -------------------------------- *)

type daemon = {
  engine : Engine.t;
  mutable jobs : entry list;  (* newest first *)
  mutable next_id : int;
}

let find_job d id = List.find_opt (fun e -> e.e_id = id) d.jobs

let join_entry e =
  match e.e_outcome with
  | Some o -> o
  | None ->
      let o = Domain.join e.e_domain in
      e.e_outcome <- Some o;
      o

let report_entry out e =
  let outcome = join_entry e in
  if not e.e_reported then begin
    e.e_reported <- true;
    match outcome with
    | Done summary -> Printf.fprintf out "[%d] done %s\n" e.e_id summary
    | Cancelled -> Printf.fprintf out "[%d] cancelled %s\n" e.e_id e.e_label
    | Failed msg -> Printf.fprintf out "[%d] failed %s: %s\n" e.e_id e.e_label msg
  end

(* Join every job in submission order and report each outcome (once) —
   the deterministic sequence point of the protocol. *)
let wait_all out d =
  List.iter (report_entry out) (List.rev d.jobs);
  flush out

let counter_value d name =
  match List.assoc_opt name (Obs.Registry.snapshot (Engine.registry d.engine)) with
  | Some v -> int_of_float v
  | None -> 0

let summarize out d =
  let count p = List.length (List.filter p d.jobs) in
  let finished = count (fun e -> match e.e_outcome with Some (Done _) -> true | _ -> false) in
  let cancelled = count (fun e -> e.e_outcome = Some Cancelled) in
  let failed = count (fun e -> match e.e_outcome with Some (Failed _) -> true | _ -> false) in
  Printf.fprintf out "%d jobs: %d done, %d cancelled, %d failed; leaked blocks: %d\n"
    (List.length d.jobs) finished cancelled failed
    (Engine.leaked_blocks d.engine);
  flush out;
  if failed > 0 then 1 else 0

let submit out d request =
  let id = d.next_id in
  d.next_id <- id + 1;
  let cancel = Atomic.make false in
  let label, tenant =
    match request with
    | Sort r -> (Printf.sprintf "sort %s" r.sr_input, r.sr_tenant)
    | Merge r -> (Printf.sprintf "merge %s + %s" r.mr_left r.mr_right, r.mr_tenant)
    | Update r ->
        (Printf.sprintf "update %s (%d docs)" r.ur_base (List.length r.ur_updates), r.ur_tenant)
  in
  let body = job_body d.engine cancel request in
  let e =
    { e_id = id; e_label = label; e_cancel = cancel; e_domain = Domain.spawn body;
      e_outcome = None; e_reported = false }
  in
  d.jobs <- e :: d.jobs;
  Printf.fprintf out "[%d] queued %s tenant=%s\n" id label tenant;
  flush out

(* One request line.  [`Continue] keeps reading; [`Quit code] drains and
   exits. *)
let process_line out d line =
  match tokens line with
  | [] -> `Continue
  | cmd :: _ when String.length cmd > 0 && cmd.[0] = '#' -> `Continue
  | "sort" :: args -> (
      match eval_request sort_cmd args with
      | Ok req ->
          submit out d req;
          `Continue
      | Error msg ->
          Printf.eprintf "nexsortd: %s\n%!" msg;
          `Quit 124)
  | "merge" :: args -> (
      match eval_request merge_cmd args with
      | Ok req ->
          submit out d req;
          `Continue
      | Error msg ->
          Printf.eprintf "nexsortd: %s\n%!" msg;
          `Quit 124)
  | "update" :: args -> (
      match eval_request update_cmd args with
      | Ok req ->
          submit out d req;
          `Continue
      | Error msg ->
          Printf.eprintf "nexsortd: %s\n%!" msg;
          `Quit 124)
  | [ "cancel"; id ] -> (
      match Option.bind (int_of_string_opt id) (find_job d) with
      | Some e ->
          Engine.cancel d.engine e.e_cancel;
          Printf.fprintf out "[%d] cancel requested\n" e.e_id;
          flush out;
          `Continue
      | None ->
          Printf.eprintf "nexsortd: cancel: unknown job %s\n%!" id;
          `Quit 124)
  | [ "status" ] ->
      Printf.fprintf out "engine: %d running, %d waiting, %d admitted, %d completed; leaked blocks: %d\n"
        (counter_value d "engine.running_jobs")
        (counter_value d "engine.waiting_jobs")
        (counter_value d "engine.jobs_admitted")
        (counter_value d "engine.jobs_completed")
        (Engine.leaked_blocks d.engine);
      flush out;
      `Continue
  | [ "wait" ] ->
      wait_all out d;
      `Continue
  | [ "quit" ] -> `Quit (-1)  (* clean drain, exit by summary *)
  | cmd :: _ ->
      Printf.eprintf "nexsortd: unknown request %S\n%!" cmd;
      `Quit 124

(* Drain the daemon: cancel nothing, let queued jobs complete, report
   them, summarize.  [forced] (bad request) cancels whatever is still
   outstanding first so the process can exit promptly with 124. *)
let shutdown ?(forced = false) out d code =
  if forced then
    List.iter
      (fun e -> if e.e_outcome = None then Engine.cancel d.engine e.e_cancel)
      d.jobs;
  wait_all out d;
  let summary_code = summarize out d in
  Engine.destroy d.engine;
  if code >= 0 then code else summary_code

let serve_channel out d ic =
  let rec loop () =
    match input_line ic with
    | line -> (
        match process_line out d line with
        | `Continue -> loop ()
        | `Quit code -> shutdown ~forced:(code >= 0) out d code)
    | exception End_of_file -> shutdown out d (-1)
  in
  loop ()

let serve_socket path d =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Printf.eprintf "nexsortd: listening on %s\n%!" path;
  let rec accept_loop () =
    let conn, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr conn in
    let out = Unix.out_channel_of_descr conn in
    let rec conn_loop () =
      match input_line ic with
      | line -> (
          match process_line out d line with
          | `Continue -> conn_loop ()
          | `Quit code ->
              let code = shutdown ~forced:(code >= 0) out d code in
              (try flush out with Sys_error _ -> ());
              (try Unix.close conn with Unix.Unix_error _ -> ());
              (try Unix.unlink path with Unix.Unix_error _ -> ());
              Some code)
      | exception End_of_file ->
          (try flush out with Sys_error _ -> ());
          (try Unix.close conn with Unix.Unix_error _ -> ());
          None
    in
    match conn_loop () with Some code -> code | None -> accept_loop ()
  in
  accept_loop ()

let run memory block_size workers socket jobfile =
  let engine = Engine.create ~workers ~memory_blocks:memory ~block_size () in
  let d = { engine; jobs = []; next_id = 1 } in
  let code =
    match (socket, jobfile) with
    | Some path, _ -> serve_socket path d
    | None, Some path ->
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> serve_channel stdout d ic)
    | None, None -> serve_channel stdout d stdin
  in
  exit code

let cmd =
  let doc = "multi-tenant NEXSORT daemon: concurrent sort/merge jobs over one engine" in
  let memory_term =
    Arg.(
      value & opt int 256
      & info [ "memory"; "M" ] ~docv:"BLOCKS"
          ~doc:
            "Engine memory budget in blocks — the pool every job's budget is carved from. \
             Size it below the sum of the submitted jobs' needs to exercise admission \
             queuing.")
  in
  let block_size_term =
    Arg.(
      value & opt int 4096
      & info [ "block-size"; "B" ] ~docv:"BYTES" ~doc:"Engine budget block size.")
  in
  let workers_term =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains in the shared sort pool.  Jobs with $(b,--jobs) > 1 sort \
             subtrees on these workers; with 0 (no pool) every job sorts on its own \
             thread.")
  in
  let socket_term =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve the request protocol on a Unix domain socket instead of stdin.")
  in
  let jobfile_term =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"JOBFILE" ~doc:"Request file.")
  in
  Cmd.v
    (Cmd.info "nexsortd" ~version:"1.0.0" ~doc)
    Term.(const run $ memory_term $ block_size_term $ workers_term $ socket_term $ jobfile_term)

let () = exit (Cmd.eval cmd)
