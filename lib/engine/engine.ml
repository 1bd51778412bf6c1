(* The multi-tenant sort engine: one process-wide memory budget, one
   shared worker pool and one admission queue serving many concurrent
   sort jobs.  Every sort session is built here ([session]), one-job
   callers included ([with_session]).

   A job's whole footprint is two carves out of the engine budget — its
   session budget ([Session.job_blocks]) and, for parallel jobs, its
   external-sort headroom ([Session.ext_blocks]) — both under a
   "tenant#seq" ledger label, so the per-owner ledger doubles as the
   per-tenant accounting the admission policy reads.  Admission is FIFO
   with per-tenant fairness: waiters are served in arrival order among
   tenants with equally many running jobs, tenants with fewer running
   jobs first, and nobody skips ahead of a waiter the budget cannot yet
   fit (small jobs cannot starve a large one).  The two halves of a
   fused merge queue as one waiter and are carved together.

   Release is where the leak ledger lives: whatever a job's carves still
   hold after its session was destroyed — a phase that failed to release
   on an abort path — is counted into [engine.leaked_blocks] and then
   force-reclaimed, so one tenant's fault can never shrink the engine.
   The destroy-probe machinery ([Session.add_destroy_probe]) still fires
   per job, unchanged. *)

exception Cancelled
(* raised by a job's poll hook (and out of a pending acquire) after
   [cancel] *)

type job = {
  j_tenant : string;
  j_name : string;
  j_seq : int;
  j_config : Nexsort.Config.t;
  j_budget : Extmem.Memory_budget.t;
  j_ext : Extmem.Memory_budget.t option;
  j_cancel : bool Atomic.t;
  j_queue_wait_s : float;
  mutable j_released : bool;
}

type waiter = {
  w_tenant : string;
  w_seq : int;  (* the first of [w_halves] consecutive job numbers *)
  w_halves : int;  (* sessions admitted together: 2 for a fused merge *)
  w_config : Nexsort.Config.t;
  w_cancel : bool Atomic.t;
  mutable w_granted : (Extmem.Memory_budget.t * Extmem.Memory_budget.t option) list option;
}

type t = {
  budget : Extmem.Memory_budget.t;
  pool : Nexsort.Sort_pool.t option;
  tracer : Obs.Tracer.t;
  registry : Obs.Registry.t;
  lock : Mutex.t;
  admitted : Condition.t;  (* a waiter was granted, cancelled, or the engine died *)
  mutable seq : int;
  mutable waiting : waiter list;  (* arrival order *)
  running : (string, int) Hashtbl.t;  (* tenant -> running job count *)
  c_admitted : Obs.Counter.t;
  c_completed : Obs.Counter.t;
  c_queued : Obs.Counter.t;  (* admissions that had to wait *)
  c_queue_wait_ms : Obs.Counter.t;
  c_leaked : Obs.Counter.t;
  c_cancelled : Obs.Counter.t;
  mutable destroyed : bool;
}

let create ?(tracer = Obs.Tracer.null) ?(workers = 0) ~memory_blocks ~block_size () =
  if memory_blocks < 1 then invalid_arg "Engine.create: need at least one block";
  let registry = Obs.Registry.create () in
  let t =
    {
      budget = Extmem.Memory_budget.create ~blocks:memory_blocks ~block_size;
      pool = (if workers > 0 then Some (Nexsort.Sort_pool.create ~tracer ~workers ()) else None);
      tracer;
      registry;
      lock = Mutex.create ();
      admitted = Condition.create ();
      seq = 0;
      waiting = [];
      running = Hashtbl.create 8;
      c_admitted = Obs.Registry.counter registry "engine.jobs_admitted";
      c_completed = Obs.Registry.counter registry "engine.jobs_completed";
      c_queued = Obs.Registry.counter registry "engine.jobs_queued";
      c_queue_wait_ms = Obs.Registry.counter registry ~unit_:"ms" "engine.queue_wait_ms";
      c_leaked = Obs.Registry.counter registry ~unit_:"blocks" "engine.leaked_blocks";
      c_cancelled = Obs.Registry.counter registry "engine.jobs_cancelled";
      destroyed = false;
    }
  in
  Obs.Registry.gauge registry ~unit_:"blocks" "engine.used_blocks" (fun () ->
      float_of_int (Extmem.Memory_budget.used_blocks t.budget));
  Obs.Registry.gauge registry "engine.waiting_jobs" (fun () ->
      float_of_int (List.length t.waiting));
  Obs.Registry.gauge registry "engine.running_jobs" (fun () ->
      float_of_int (Hashtbl.fold (fun _ n acc -> acc + n) t.running 0));
  t

let registry t = t.registry

let tracer t = t.tracer

let pool t = t.pool

let budget t = t.budget

let leaked_blocks t = Obs.Counter.value t.c_leaked

let running_count t tenant = Option.value (Hashtbl.find_opt t.running tenant) ~default:0

let who ~tenant ~seq = Printf.sprintf "%s#%d" tenant seq

let workers t = match t.pool with Some p -> Nexsort.Sort_pool.workers p | None -> 0

(* Try to carve all of one waiter's budgets: for each of its halves the
   session budget and, for parallel jobs, the external-sort headroom.
   [Exhausted] means "not now": everything carved so far goes back and
   the waiter stays queued, so a pair never holds one half while it
   waits for the other. *)
let try_grant t (w : waiter) =
  let config = w.w_config and workers = workers t in
  let carve who blocks =
    Extmem.Memory_budget.carve t.budget ~block_size:config.Nexsort.Config.block_size ~who
      ~blocks ()
  in
  let carve_half i =
    let label = who ~tenant:w.w_tenant ~seq:(w.w_seq + i) in
    let main = carve label (Nexsort.Session.job_blocks ~workers config) in
    match Nexsort.Session.ext_blocks ~workers config with
    | 0 -> (main, None)
    | ext -> (
        try (main, Some (carve (label ^ " ext") ext))
        with e ->
          Extmem.Memory_budget.uncarve main;
          raise e)
  in
  let granted = ref [] in
  match
    for i = 0 to w.w_halves - 1 do
      granted := carve_half i :: !granted
    done
  with
  | () ->
      w.w_granted <- Some (List.rev !granted);
      true
  | exception Extmem.Memory_budget.Exhausted _ ->
      List.iter
        (fun (main, ext) ->
          Extmem.Memory_budget.uncarve main;
          Option.iter Extmem.Memory_budget.uncarve ext)
        !granted;
      false

(* Admission, under the engine lock.  Order waiters by (tenant's running
   jobs, arrival): a tenant with fewer jobs in flight goes first, FIFO
   among equals.  No skip-ahead: the first waiter the budget cannot fit
   blocks everyone behind it, so a stream of small jobs cannot starve a
   large one. *)
let admit_locked t =
  let granted = ref false in
  let continue_ = ref true in
  while !continue_ do
    let pending =
      List.filter
        (fun w -> w.w_granted = None && not (Atomic.get w.w_cancel))
        t.waiting
    in
    match
      List.stable_sort
        (fun a b ->
          let c = compare (running_count t a.w_tenant) (running_count t b.w_tenant) in
          if c <> 0 then c else compare a.w_seq b.w_seq)
        pending
    with
    | [] -> continue_ := false
    | best :: _ ->
        if try_grant t best then begin
          Hashtbl.replace t.running best.w_tenant
            (running_count t best.w_tenant + best.w_halves);
          granted := true
        end
        else continue_ := false
  done;
  if !granted then Condition.broadcast t.admitted

let remove_waiter t w = t.waiting <- List.filter (fun w' -> w' != w) t.waiting

(* Block until the engine grants one job per name their budgets at once
   (admission), then return their handles; an empty name means
   "tenant#seq".  Raises [Cancelled] if the jobs are cancelled while
   queued. *)
let acquire_halves ~names ?cancel t ~tenant (config : Nexsort.Config.t) =
  let halves = List.length names in
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.lock;
  if t.destroyed then begin
    Mutex.unlock t.lock;
    invalid_arg "Engine.acquire: engine is destroyed"
  end;
  let w =
    {
      w_tenant = tenant;
      w_seq = t.seq + 1;
      w_halves = halves;
      w_config = config;
      w_cancel = (match cancel with Some c -> c | None -> Atomic.make false);
      w_granted = None;
    }
  in
  t.seq <- t.seq + halves;
  t.waiting <- t.waiting @ [ w ];
  admit_locked t;
  if w.w_granted = None then begin
    Obs.Counter.incr t.c_queued;
    Obs.Tracer.begin_s t.tracer "engine.queue_wait"
  end;
  let was_queued = w.w_granted = None in
  while w.w_granted = None && not (Atomic.get w.w_cancel) && not t.destroyed do
    Condition.wait t.admitted t.lock
  done;
  let result = w.w_granted in
  remove_waiter t w;
  Mutex.unlock t.lock;
  if was_queued then Obs.Tracer.end_s t.tracer "engine.queue_wait";
  match result with
  | None when Atomic.get w.w_cancel ->
      Obs.Counter.incr t.c_cancelled;
      raise Cancelled
  | None -> invalid_arg "Engine.acquire: engine destroyed while queued"
  | Some carves ->
      let wait_s = Unix.gettimeofday () -. t0 in
      Obs.Counter.add t.c_admitted halves;
      Obs.Counter.add t.c_queue_wait_ms (int_of_float (wait_s *. 1000.));
      List.mapi
        (fun i ((main, ext), name) ->
          let seq = w.w_seq + i in
          {
            j_tenant = tenant;
            j_name = (if name = "" then who ~tenant ~seq else name);
            j_seq = seq;
            j_config = config;
            j_budget = main;
            j_ext = ext;
            j_cancel = w.w_cancel;
            j_queue_wait_s = wait_s;
            j_released = false;
          })
        (List.combine carves names)

let acquire ?(name = "") ?cancel t ~tenant config =
  List.hd (acquire_halves ~names:[ name ] ?cancel t ~tenant config)

(* Cancellation takes the raw flag, not the job handle: a queued job is
   still blocked inside [acquire] and has no handle yet, so callers that
   need to cancel from outside pass their own flag in ([?cancel]).  The
   broadcast wakes queued waiters so they notice the flag and leave. *)
let cancel t (flag : bool Atomic.t) =
  Atomic.set flag true;
  Mutex.lock t.lock;
  Condition.broadcast t.admitted;
  Mutex.unlock t.lock

let cancel_flag (j : job) = j.j_cancel

let cancel_job t (j : job) = cancel t j.j_cancel

let session t (j : job) =
  let pool = match (t.pool, j.j_ext) with Some p, Some eb -> Some (p, eb) | _ -> None in
  Nexsort.Session.create ~budget:j.j_budget ?pool
    ~poll:(fun () -> if Atomic.get j.j_cancel then raise Cancelled)
    j.j_config

(* Return a job's carves to the engine.  The session must already be
   destroyed (Sorter does this on every exit path); anything its carves
   still hold is a leak — counted, then force-reclaimed so the engine
   budget is whole again no matter what the job did. *)
let release t (j : job) =
  if not j.j_released then begin
    j.j_released <- true;
    let leak = Extmem.Memory_budget.used_blocks j.j_budget in
    let leak =
      leak
      + (match j.j_ext with Some eb -> Extmem.Memory_budget.used_blocks eb | None -> 0)
    in
    if leak > 0 then Obs.Counter.add t.c_leaked leak;
    Mutex.lock t.lock;
    Extmem.Memory_budget.uncarve ~force:true j.j_budget;
    (match j.j_ext with
    | Some eb -> Extmem.Memory_budget.uncarve ~force:true eb
    | None -> ());
    (match running_count t j.j_tenant - 1 with
    | 0 -> Hashtbl.remove t.running j.j_tenant
    | n -> Hashtbl.replace t.running j.j_tenant n);
    Obs.Counter.incr t.c_completed;
    admit_locked t;
    Condition.broadcast t.admitted;
    Mutex.unlock t.lock
  end

(* Build the jobs' sessions, apply [f] to them, and on every exit path
   destroy each session that was built, then release every job.  [f]
   normally consumes the sessions via [Sorter.sort_device ~session]
   (which destroys them); the destroys here are idempotent and cover [f]
   raising before it got that far.  A faulted or cancelled job provably
   returns every block (minus what the leak counter records). *)
let with_sessions t jobs f =
  let rec build acc = function
    | [] -> f (List.rev acc)
    | j :: rest ->
        let s = session t j in
        Fun.protect
          ~finally:(fun () -> Nexsort.Session.destroy s)
          (fun () -> build (s :: acc) rest)
  in
  Fun.protect ~finally:(fun () -> List.iter (release t) jobs) (fun () -> build [] jobs)

let run ?name ?cancel t ~tenant config f =
  let j = acquire ?name ?cancel t ~tenant config in
  with_sessions t [ j ] (function [ s ] -> f j s | _ -> assert false)

let run_pair ?(name = "") ?cancel t ~tenant config f =
  let names = if name = "" then [ ""; "" ] else [ name ^ "-left"; name ^ "-right" ] in
  match acquire_halves ~names ?cancel t ~tenant config with
  | jl :: _ as jobs ->
      with_sessions t jobs (function [ sl; sr ] -> f jl (sl, sr) | _ -> assert false)
  | [] -> assert false

let destroy t =
  Mutex.lock t.lock;
  if t.destroyed then Mutex.unlock t.lock
  else begin
    if t.waiting <> [] || Hashtbl.length t.running > 0 then begin
      Mutex.unlock t.lock;
      invalid_arg "Engine.destroy: jobs still queued or running"
    end;
    t.destroyed <- true;
    Condition.broadcast t.admitted;
    Mutex.unlock t.lock;
    match t.pool with Some p -> Nexsort.Sort_pool.shutdown p | None -> ()
  end

(* An engine sized for exactly [slots] jobs of this config — the
   single-job CLI path ([slots = 1]) and the two-stream merge
   ([slots = 2], one {!run_pair}): the same admission, carve and release
   machinery, with a budget sized so those admissions succeed
   immediately.  Its pool has [config.jobs] workers, so [--jobs N] runs
   on exactly N workers. *)
let for_config ?(slots = 1) (config : Nexsort.Config.t) =
  let workers = if config.Nexsort.Config.jobs > 1 then config.Nexsort.Config.jobs else 0 in
  let per_job =
    Nexsort.Session.job_blocks ~workers config + Nexsort.Session.ext_blocks ~workers config
  in
  create ~tracer:config.Nexsort.Config.tracer ~workers ~memory_blocks:(slots * per_job)
    ~block_size:config.Nexsort.Config.block_size ()

let with_engine ?slots config f =
  let t = for_config ?slots config in
  Fun.protect ~finally:(fun () -> destroy t) (fun () -> f t)

let with_session config f =
  with_engine config (fun t -> run t ~tenant:"local" config (fun _ s -> f s))

let with_session_pair config f =
  with_engine ~slots:2 config (fun t -> run_pair t ~tenant:"local" config (fun _ ss -> f ss))

let sort_string ?(config = Nexsort.Config.make ()) ~ordering s =
  let input = Nexsort.Config.scratch_device config ~name:"input" in
  Extmem.Device.load_string input s;
  let output = Nexsort.Config.scratch_device config ~name:"output" in
  let report =
    with_session config (fun session -> Nexsort.sort_device ~session ~ordering ~input ~output ())
  in
  (Extmem.Device.contents output, report)

let queue_wait_s (j : job) = j.j_queue_wait_s

let job_name (j : job) = j.j_name

let job_tenant (j : job) = j.j_tenant

let metrics_json t =
  let snap = Obs.Registry.snapshot t.registry in
  Obs.Json.Obj
    (List.map
       (fun (name, v) ->
         let v =
           if Float.is_integer v then Obs.Json.Int (int_of_float v) else Obs.Json.Float v
         in
         (name, v))
       snap)

(* the per-job "job" report section: who ran, how long it queued, and
   the engine counters at report time *)
let job_json t (j : job) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str j.j_name);
      ("tenant", Obs.Json.Str j.j_tenant);
      ("queue_wait_ms", Obs.Json.Float (j.j_queue_wait_s *. 1000.));
      ("engine", metrics_json t);
    ]
