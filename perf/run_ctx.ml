(* What one workload run needs: where the CLIs are, the seed, how long
   to measure, and the failure tally every check reports into. *)

type t = {
  bin_dir : string;  (** absolute directory holding the CLI executables *)
  scale : Workload.scale;
  seed : int;
  seconds : float;  (** measurement time per run *)
  corrupt : bool;  (** damage the first request's output before it is checked *)
}

let bin t name = Filename.concat t.bin_dir (name ^ ".exe")

type metric = {
  name : string;
  value : float;
  unit_ : string;
  note : string;  (** how it was measured: sample counts, basis *)
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** newest first *)
  mutable samples : (string * float list) list;  (** raw measurements, for result files *)
}

let tally () = { attempted = 0; failed = 0; errors = []; samples = [] }

(* Record one checked operation.  A failure never stops the run. *)
let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.errors <- what :: t.errors
  end

type outcome = {
  workload : Workload.name;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : metric list;
  md5 : string;  (** digest of the generated inputs *)
  report : string list;  (** lines printed before the metrics (the ledger) *)
  samples : (string * float list) list;  (** raw measurements behind the metrics *)
}

let outcome ?(report = []) ~workload ~seed ~traced ~md5 (t : tally) metrics =
  { workload; seed; traced; attempted = t.attempted; failed = t.failed;
    errors = List.rev t.errors; metrics; md5; report; samples = List.rev t.samples }

(* Call [f 0], [f 1], ... while the next call, judged by the length of the
   previous one, still ends within [seconds]; at least [min_reps] calls,
   and none after [f] returns [false]. *)
let repeat ~seconds ~min_reps f =
  let t0 = Proc.now_s () in
  let rec go i last =
    let now = Proc.now_s () in
    if (i < min_reps || now -. t0 +. last <= seconds) && f i then go (i + 1) (Proc.now_s () -. now)
  in
  go 0 0.

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Run [f] inside a fresh scratch directory [dir], removed afterwards. *)
let in_scratch dir f =
  remove_tree dir;
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdir_p dir;
  let back = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir back;
      remove_tree dir)
    f

(* ---- machine speed ----

   The host's other tenants slow every process on it, by more than half
   at times and changing within seconds, so raw walls of runs made at
   different times differ by more than any bound worth having.  Each run
   therefore times a fixed, repository-independent probe
   (nexperf_probe.ml) right after every request, and scales each
   request's wall by the probes taken just before and just after it (set-up
   runs by three probes on either side of them), to the speed at which the
   probe takes [reference_probe_s]: its median on the machine the bounds
   were set on, with a quiet host. *)

let reference_probe_s = 0.090

type speed = {
  tally_of : tally;
  parallel : int;  (* probes run at once: the cores the workload keeps busy *)
  mutable owed : float;  (* probe seconds owed *)
  mutable measured : (float list * float list) list;
      (* newest first: the walls of one request (or daemon), and the probe
         samples taken right after them *)
}

let speed ?(parallel = 1) tally = { tally_of = tally; parallel; owed = 0.; measured = [] }

(* One probe sample: [parallel] probes at once, their mean wall.  A probe
   is not an operation of the program, so only a failing one is counted
   (as a failed check). *)
let probe sp =
  let err = Proc.open_log "probe.err" in
  let runs =
    Fun.protect
      ~finally:(fun () -> Unix.close err)
      (fun () ->
        List.init sp.parallel (fun i ->
            Proc.spawn ~stderr:err ~result:(Printf.sprintf "probe%d.rusage" i)
              (Proc.sibling "nexperf_probe.exe") [])
        |> List.map (fun c -> Proc.wait c))
  in
  let ok (st : Proc.status) = st.Proc.code = 0 && not st.Proc.timed_out in
  let wall (st : Proc.status) = float_of_int (st.Proc.end_ns - st.Proc.start_ns) *. 1e-9 in
  if List.for_all ok runs then
    Some (List.fold_left (fun a st -> a +. wall st) 0. runs /. float_of_int sp.parallel)
  else begin
    check sp.tally_of false "machine-speed probe failed";
    None
  end

(* Record the walls of one request (or daemon) and probe right after
   them, until about 8 % of the measured time went to probing. *)
let pay sp walls =
  sp.owed <- sp.owed +. (0.08 *. List.fold_left ( +. ) 0. walls);
  let rec go acc =
    if sp.owed <= 0. then acc
    else begin
      let p = probe sp in
      sp.owed <- sp.owed -. Option.fold ~none:0.01 ~some:(Float.max 0.01) p;
      go (Option.fold ~none:acc ~some:(fun p -> p :: acc) p)
    end
  in
  sp.measured <- (walls, go []) :: sp.measured

let probes sp = List.concat_map snd (List.rev sp.measured)

(* The factor that takes a wall measured while the probe took
   [probe_wall] to the reference speed.  A pair of fresh probe processes
   slows about twice as much as the warm two-domain daemon when both
   cores are contended (log-log slope 0.58 over 40 tenants runs, against
   about 1 for the one-core workloads), so the pair's ratio enters as its
   square root. *)
let factor sp probe_wall =
  let ratio = reference_probe_s /. probe_wall in
  if sp.parallel = 1 then ratio else sqrt ratio

(* Set-up walls measured by [f], at the reference speed of [probes]
   probes just before and as many just after them.  The raw walls and the
   probes go to the run's samples. *)
let scaled_setup ~probes tally f =
  let sp = speed tally in
  let some () = List.filter_map (fun () -> probe sp) (List.init probes ignore) in
  let before = some () in
  let walls = f () in
  let around = before @ some () in
  tally.samples <- ("setup", walls) :: ("setup_probes", around) :: tally.samples;
  let k = factor sp (Stats.median around) in
  List.map (fun w -> w *. k) walls

(* Every recorded wall at the reference speed, oldest first. *)
let scaled sp =
  let measured = List.rev sp.measured in
  let all = probes sp in
  let _, out =
    List.fold_left
      (fun (before, acc) (walls, after) ->
        let around = match before @ after with [] -> all | l -> l in
        let k = factor sp (Stats.median around) in
        (after, List.rev_append (List.map (fun w -> w *. k) walls) acc))
      ([], []) measured
  in
  List.rev out

(* ---- --metrics reports ---- *)

let json_file path = Obs.Json.of_string (Workload.read_file path)

let rec field json = function
  | [] -> Some json
  | k :: rest -> Option.bind (Obs.Json.member k json) (fun j -> field j rest)

let number json path =
  match field json path with
  | Some (Obs.Json.Int i) -> float_of_int i
  | Some (Obs.Json.Float f) -> f
  | _ -> nan

(* Exact block I/Os of one run, from the CLI's own report. *)
let sort_ios report = number report [ "io"; "total"; "total" ]

let ingest_ios report = number report [ "io"; "flush_reads" ] +. number report [ "io"; "flush_writes" ]

let mb bytes = float_of_int bytes /. 1e6
