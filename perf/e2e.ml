(* End-to-end runs: each workload's requests sent to the user-facing
   binaries as child processes, timed from outside, every output checked.

   A request is what one user waits for: one nexsort_cli sort (deep,
   flat), one xmlmerge_cli --ingest run over the base and all update
   documents (ingest), one round of four daemon jobs from two tenants
   followed by [wait] (tenants).  All loops are closed: the next request
   is sent when the previous one has been checked. *)

open Run_ctx

let tail_of path =
  match String.split_on_char '\n' (String.trim (Workload.read_file path)) with
  | [] -> ""
  | lines -> List.nth lines (List.length lines - 1)
  | exception Sys_error _ -> ""

let why ~log r = Proc.describe r ^ (match tail_of log with "" -> "" | l -> ": " ^ l)

(* Flip one byte of [path] (the corrupted-output check of --smoke). *)
let damage path =
  let s = Bytes.of_string (Workload.read_file path) in
  let i = Bytes.length s / 2 in
  if i > 0 then Bytes.set s i (if Bytes.get s i = 'x' then 'y' else 'x');
  Workload.write_file path (Bytes.to_string s)

let same_file path contents =
  match Workload.read_file path with s -> String.equal s contents | exception Sys_error _ -> false

let report path = try Some (json_file path) with Sys_error _ | Failure _ -> None

(* The reference every sorted output must equal byte for byte: the
   internal-memory recursive sort of the same document. *)
let reference ctx tally (inp : Workload.inputs) =
  let r =
    Proc.run ~log:"ref.err" (bin ctx "nexsort_cli")
      [ "-a"; "treesort"; "-O"; Workload.ordering_spec; inp.Workload.doc; "-o"; "ref.xml" ]
  in
  check tally (Proc.ok r) ("reference sort: " ^ why ~log:"ref.err" r);
  if Proc.ok r then Workload.read_file "ref.xml" else ""

(* Every request of a run must cost the same exact block I/Os. *)
let same_ios first n =
  Float.is_finite n
  &&
  match !first with
  | None ->
      first := Some n;
      true
  | Some m -> m = n

(* One nexsort_cli run over [input], checked against [reference] and for
   its I/O count; returns the wall time and the report when it passed. *)
let sort_once ?(flags = []) ?(corrupt = false) ctx tally w ~ios ~reference input =
  let r =
    Proc.run ~log:"sort.err" (bin ctx "nexsort_cli")
      (Workload.sort_flags w @ flags @ [ input; "-o"; "out.xml"; "--metrics"; "m.json" ])
  in
  if corrupt then damage "out.xml";
  let rep = if Proc.ok r then report "m.json" else None in
  let n = match rep with Some j -> sort_ios j | None -> nan in
  let same = Proc.ok r && same_file "out.xml" reference in
  let good = same && same_ios ios n in
  check tally good
    (if not (Proc.ok r) then "sort: " ^ why ~log:"sort.err" r
     else if not same then "sort: output differs from the reference"
     else Printf.sprintf "sort: %.0f block I/Os, expected %.0f" n (Option.value !ios ~default:nan));
  if good then Some (r, Option.get rep) else None

let setup_runs (ctx : Run_ctx.t) = match ctx.scale with Workload.Full -> 20 | Workload.Smoke -> 3

(* Set-up is scaled by three probes on either side at full scale; at
   smoke scale, where no timing is judged, by one. *)
let scaled_setup (ctx : Run_ctx.t) =
  Run_ctx.scaled_setup ~probes:(match ctx.scale with Workload.Full -> 3 | Workload.Smoke -> 1)

let metric name value unit_ note = { name; value; unit_; note }

(* Request walls come from [speed], each scaled to the reference machine
   speed by the probes around it (Run_ctx.scaled); [setup] is already
   scaled (Run_ctx.scaled_setup).  The notes keep the raw median and the
   90th percentile, which is printed but not gated. *)
let summarize ~what ~speed ~rss_mb ~ios ~setup ~bytes ~events =
  let raw = List.concat_map fst (List.rev speed.measured) in
  let walls = scaled speed in
  let probes = probes speed in
  speed.tally_of.samples <-
    ("walls", raw) :: ("scaled", walls) :: ("probes", probes) :: speed.tally_of.samples;
  let n = List.length walls in
  let p50 = Stats.median walls in
  [ metric "mb_s" (mb bytes /. p50) "MB/s"
      (Printf.sprintf "%d input bytes per %s / median wall" bytes what);
    metric "events_s" (float_of_int events /. p50) "1/s"
      (Printf.sprintf "%d parser events per %s / median wall" events what);
    metric "latency_s_p50" p50 "s"
      (Printf.sprintf
         "median of %d %ss (%.4g s measured, scaled by %d probes); p90 %.4g s (Harrell-Davis, \
          not gated)"
         n what (Stats.median raw) (List.length probes) (Stats.harrell_davis 0.9 walls));
    metric "block_ios" ios "count" (Printf.sprintf "exact, per %s, from --metrics" what);
    metric "peak_rss_mb" rss_mb "MB" "ru_maxrss of the serving process (median)";
    metric "setup_s" (Stats.median setup) "s"
      (Printf.sprintf "median of %d set-up runs" (List.length setup)) ]

let rss_mb (st : Proc.status) = float_of_int st.Proc.maxrss_kb /. 1024.

(* ---- deep, flat: one sort per request ---- *)

let run_sort ctx tally w (inp : Workload.inputs) ~reference =
  let nexsort = bin ctx "nexsort_cli" in
  (* set-up: what every invocation pays before any data — process start,
     engine and session set-up — on a one-element document *)
  let setup =
    scaled_setup ctx tally (fun () ->
        List.init (setup_runs ctx) (fun _ ->
            Proc.run ~log:"setup.err" nexsort
              (Workload.sort_flags w @ [ inp.Workload.one; "-o"; "one.out.xml"; "--metrics"; "one.json" ]))
        |> List.filter_map (fun r ->
               check tally (Proc.ok r) ("set-up: " ^ why ~log:"setup.err" r);
               if Proc.ok r then Some r.Proc.wall_s else None))
  in
  let rss = ref [] and ios = ref None and speed = speed tally in
  repeat ~seconds:ctx.seconds ~min_reps:2 (fun i ->
      (match sort_once ~corrupt:(ctx.corrupt && i = 0) ctx tally w ~ios ~reference inp.doc with
      | Some (r, _) ->
          rss := rss_mb r.Proc.status :: !rss;
          pay speed [ r.Proc.wall_s ]
      | None -> ());
      true);
  summarize ~what:"sort" ~speed ~rss_mb:(Stats.median !rss)
    ~ios:(Option.value !ios ~default:nan) ~setup
    ~bytes:(String.length inp.xml) ~events:inp.doc_events

(* ---- ingest: base load + every update document per request ---- *)

let ingest_args ctx (inp : Workload.inputs) updates ~out ~metrics =
  let plan = Workload.ingest_plan ctx.scale in
  [ "--ingest"; "-O"; Workload.ordering_spec; "--flush-every"; string_of_int plan.Workload.flush_every;
    inp.Workload.doc ]
  @ updates @ [ "-o"; out; "--metrics"; metrics ]

(* One ingest request.  The first passing output is checked by the
   validator against the expected document (sortedness plus the
   sibling-order-invariant digest); later ones must equal it byte for
   byte. *)
let ingest_once ?(corrupt = false) ctx tally (inp : Workload.inputs) ~ios ~golden =
  let r =
    Proc.run ~log:"ingest.err" (bin ctx "xmlmerge_cli")
      (ingest_args ctx inp inp.updates ~out:"out.xml" ~metrics:"m.json")
  in
  if corrupt then damage "out.xml";
  let rep = if Proc.ok r then report "m.json" else None in
  let verdict =
    if not (Proc.ok r) then Error (why ~log:"ingest.err" r)
    else
      let out = Workload.read_file "out.xml" in
      match !golden with
      | Some g -> if String.equal out g then Ok () else Error "output differs from the first request's"
      | None -> (
          match Verify.Validator.check ~ordering:Workload.ordering ~input:inp.expected out with
          | Ok () ->
              golden := Some out;
              Ok ()
          | Error e -> Error e)
  in
  let n = match rep with Some j -> ingest_ios j | None -> nan in
  let verdict =
    match verdict with
    | Ok () when not (same_ios ios n) -> Error (Printf.sprintf "%.0f block I/Os" n)
    | v -> v
  in
  check tally (verdict = Ok ()) (match verdict with Ok () -> "" | Error e -> "ingest: " ^ e);
  match (verdict, rep) with Ok (), Some rep -> Some (r, rep) | _ -> None

let run_ingest ctx tally (inp : Workload.inputs) ~reference =
  let merge = bin ctx "xmlmerge_cli" in
  (* set-up: the base load alone — sort the base, build the index, no
     update operations; its output is the sorted base *)
  let setup =
    scaled_setup ctx tally (fun () ->
        List.init (match ctx.scale with Workload.Full -> 3 | Workload.Smoke -> 2) (fun _ ->
            let r =
              Proc.run ~log:"setup.err" merge
                (ingest_args ctx inp [ inp.empty_update ] ~out:"setup.xml" ~metrics:"setup.json")
            in
            let good = Proc.ok r && same_file "setup.xml" reference in
            check tally good
              (if Proc.ok r then "set-up: base load differs from the reference"
               else "set-up: " ^ why ~log:"setup.err" r);
            if good then Some r.Proc.wall_s else None)
        |> List.filter_map Fun.id)
  in
  let rss = ref [] and ios = ref None and golden = ref None and speed = speed tally in
  repeat ~seconds:ctx.seconds ~min_reps:2 (fun i ->
      (match ingest_once ~corrupt:(ctx.corrupt && i = 0) ctx tally inp ~ios ~golden with
      | Some (r, _) ->
          rss := rss_mb r.Proc.status :: !rss;
          pay speed [ r.Proc.wall_s ]
      | None -> ());
      true);
  summarize ~what:"ingest run" ~speed ~rss_mb:(Stats.median !rss)
    ~ios:(Option.value !ios ~default:nan) ~setup
    ~bytes:(String.length inp.xml + inp.update_bytes)
    ~events:(inp.doc_events + inp.update_events)

(* ---- tenants: rounds of daemon jobs ---- *)

let job_line (inp : Workload.inputs) j =
  String.concat " "
    (("sort" :: Workload.sort_flags Workload.Tenants)
    @ [ inp.Workload.doc; "-o"; Printf.sprintf "t%d.xml" j; "--tenant"; Workload.tenant_of_job j;
        "--metrics"; Printf.sprintf "t%d.json" j ])

(* "[7] done sort ..." -> Some "done"; acknowledgements ("queued") and
   other lines -> None *)
let outcome_word line =
  match String.index_opt line ']' with
  | Some i when String.length line > 0 && line.[0] = '[' -> (
      match String.split_on_char ' ' (String.trim (String.sub line (i + 1) (String.length line - i - 1))) with
      | ("done" | "failed" | "cancelled") as w :: _ -> Some w
      | _ -> None)
  | _ -> None

(* One daemon, [rounds] closed-loop rounds against it, then [quit].
   [on_job] sees each passing job's report.  Returns the round walls, the
   daemon's status after it drained, and whether it kept answering. *)
let daemon_session ?(corrupt = false) ctx tally (inp : Workload.inputs) ~reference ~rounds ~ios ~on_job =
  let d = Proc.start ~log:"daemon.err" (bin ctx "nexsortd") Workload.daemon_flags in
  let walls = ref [] and submitted = ref 0 and alive = ref true in
  let round i =
    let t0 = Proc.now_ns () in
    let sent =
      List.for_all (fun j -> Proc.send d (job_line inp j)) (List.init Workload.jobs_per_round Fun.id)
      && Proc.send d "wait"
    in
    let deadline = Proc.now_s () +. 120. in
    let rec collect acc =
      if List.length acc = Workload.jobs_per_round then List.rev acc
      else
        match Proc.read_line ~deadline d with
        | None -> List.rev acc
        | Some l -> collect (match outcome_word l with Some w -> w :: acc | None -> acc)
    in
    let outcomes = if sent then collect [] else [] in
    let wall = float_of_int (Proc.now_ns () - t0) *. 1e-9 in
    if List.length outcomes < Workload.jobs_per_round then begin
      check tally false "tenants: the daemon stopped answering";
      alive := false
    end
    else begin
      submitted := !submitted + Workload.jobs_per_round;
      if corrupt && i = 0 then damage "t0.xml";
      let bad =
        List.concat
          (List.mapi
             (fun j w ->
               let out = Printf.sprintf "t%d.xml" j in
               if w <> "done" then [ Printf.sprintf "job %d %s" j w ]
               else if not (same_file out reference) then [ out ^ " differs from the reference" ]
               else
                 match report (Printf.sprintf "t%d.json" j) with
                 | Some rep when same_ios ios (sort_ios rep) ->
                     on_job rep;
                     []
                 | _ -> [ Printf.sprintf "job %d: unexpected block I/Os" j ])
             outcomes)
      in
      check tally (bad = []) ("tenants: " ^ String.concat "; " bad);
      if bad = [] then walls := wall :: !walls
    end
  in
  for i = 0 to rounds - 1 do
    if !alive then round i
  done;
  ignore (Proc.send d "quit");
  let lines, st = Proc.finish d in
  let summary = Printf.sprintf "%d jobs: %d done, 0 cancelled, 0 failed; leaked blocks: 0" !submitted !submitted in
  let clean = st.Proc.code = 0 && (not st.Proc.timed_out) && List.mem summary lines in
  check tally clean
    (Printf.sprintf "tenants: daemon exit %d, summary %S" st.Proc.code
       (match List.rev lines with l :: _ -> l | [] -> "missing"));
  (List.rev !walls, st, !alive && clean)

(* set-up: start the daemon and wait for its first status reply *)
let daemon_setup ctx tally =
  scaled_setup ctx tally @@ fun () ->
  let samples = ref [] in
  for _ = 1 to setup_runs ctx do
    let d = Proc.start ~log:"setup.err" (bin ctx "nexsortd") Workload.daemon_flags in
    let reply =
      if Proc.send d "status" then Proc.read_line ~deadline:(Proc.now_s () +. 30.) d else None
    in
    let replied = Proc.now_ns () in
    ignore (Proc.send d "quit");
    let _, st = Proc.finish d in
    let wall = float_of_int (replied - st.Proc.start_ns) *. 1e-9 in
    let good =
      st.Proc.code = 0
      && match reply with Some l -> String.length l > 7 && String.sub l 0 7 = "engine:" | None -> false
    in
    check tally good "tenants set-up: no status reply";
    if good then samples := wall :: !samples
  done;
  !samples

(* The daemon's memory grows with the jobs it has served, so every
   daemon serves the same number of rounds and peak RSS is the median
   over daemons: a faster daemon must not look fatter. *)
let run_tenants ctx tally (inp : Workload.inputs) ~reference =
  let setup = daemon_setup ctx tally in
  let rss = ref [] and ios = ref None in
  (* two jobs run at once: probe both cores *)
  let speed = speed ~parallel:2 tally in
  repeat ~seconds:ctx.seconds ~min_reps:1 (fun i ->
      let walls, st, alive =
        daemon_session ~corrupt:(ctx.corrupt && i = 0) ctx tally inp ~reference
          ~rounds:(Workload.rounds_per_daemon ctx.scale) ~ios ~on_job:ignore
      in
      rss := rss_mb st :: !rss;
      pay speed walls;
      alive);
  let jobs = Workload.jobs_per_round in
  summarize ~what:"round" ~speed ~rss_mb:(Stats.median !rss)
    ~ios:(Option.value !ios ~default:nan *. float_of_int jobs)
    ~setup ~bytes:(jobs * String.length inp.xml) ~events:(jobs * inp.doc_events)

let run ctx w =
  let tally = tally () in
  let inp = Workload.generate ~scale:ctx.scale ~seed:ctx.seed w in
  let reference = reference ctx tally inp in
  let metrics =
    match w with
    | Workload.Deep | Workload.Flat -> run_sort ctx tally w inp ~reference
    | Workload.Ingest -> run_ingest ctx tally inp ~reference
    | Workload.Tenants -> run_tenants ctx tally inp ~reference
  in
  outcome ~workload:w ~seed:ctx.seed ~traced:false ~md5:inp.md5 tally metrics
