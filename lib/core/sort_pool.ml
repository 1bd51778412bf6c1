(* A hand-rolled domain pool for parallel subtree sorts.

   NEXSORT's subtree sorts are independent by construction (§4): by the
   time a subtree collapses, its entries are complete and nothing else
   reads them.  The main thread stays the only owner of the session —
   stacks, budget decisions, run-id assignment — and workers get the
   work that is pure given its inputs: rebuild the forest from an entry
   list, sort it, serialize it to a private scratch device; or (for
   subtrees that exceed the arena) a whole key-path external merge sort
   over a private scratch arena.

   Since the engine refactor the pool itself is just the domains and the
   task queue: it owns no devices, no buffers and no memory.  Every
   job-owned resource lives in a {e view} — per-worker scratch run
   devices, writer buffers (reserved in the job's budget), the run store
   runs are installed into, and the external-sort headroom budget — so
   one pool can serve many concurrent jobs with different block sizes,
   and a job's I/O counters never mix with another tenant's.

   Determinism is by construction rather than by locking discipline:

   - Run ids are assigned on the main thread ([Run_store.reserve]) at
     exactly the sequence points where the single-threaded path would
     call [finish_run], so the id order never depends on worker timing.
   - Workers are pure given their task: they receive already-encoded
     payloads, sort them as entry views and re-emit the same bytes —
     no dictionary access, no re-encoding (synthesized End entries are
     name-free and produced in a worker-private scratch encoder).
   - Each task writes to a per-(view, worker) scratch device and runs
     are padded to whole blocks, so a run's block count — and therefore
     every I/O counter — is determined by its content, not by which
     device or worker produced it.
   - External tasks are handed the exact arena size the single-threaded
     path would have leased ([arena_blocks], measured after the same
     reclaim), carved out of the view's headroom budget, so run sizes,
     merge fan-ins and scratch I/O match the [--jobs 1] bill.
   - The job's thread drains its view (one barrier) before anything
     reads a worker-written run. *)

let slab_blocks = 1

type task =
  | Sort of { run : Extmem.Run_store.id; payloads : string list }
  | Copy of { run : Extmem.Run_store.id; payloads : string list }
  | External of {
      run : Extmem.Run_store.id;
      payloads : string list;  (* in scan order *)
      scan : [ `Forward | `Reverse ];
      arena_blocks : int;  (* what the -j1 sort would have leased *)
    }

type completion = {
  c_run : Extmem.Run_store.id;
  c_result : (Extmem.Device.t * Extmem.Extent.t, exn) result;
}

type worker = {
  index : int;
  scratch : Extmem.Codec.Enc.t;  (* worker-private entry/record encoder *)
  mutable domain : unit Domain.t option;
}

type worker_stats = {
  w_index : int;
  w_tasks : int;
  w_entries : int;
  w_io : Extmem.Io_stats.t;
}

type view = {
  v_config : Config.t;
  v_runs : Extmem.Run_store.t;
  v_budget : Extmem.Memory_budget.t;  (* writer buffers reserved here *)
  v_ext_budget : Extmem.Memory_budget.t;
  v_devs : Extmem.Device.t array;     (* per-worker scratch run devices *)
  v_buffers : bytes array;            (* per-worker run-writer buffers *)
  v_tasks_done : int Atomic.t array;
  v_entries : int Atomic.t array;
  v_stats_lock : Mutex.t;             (* guards the scratch-device totals *)
  v_temp_io : Extmem.Io_stats.t;      (* retired external-sort temp devices *)
  mutable v_temp_sim : float;
  mutable v_leaked : int;             (* blocks an aborted task failed to return *)
  (* the fields below are guarded by the pool lock *)
  mutable v_in_flight : int;
  mutable v_completions : completion list;
  mutable v_closed : bool;
  (* totals captured at close, once the view devices are gone *)
  mutable v_final_io : Extmem.Io_stats.t option;
  mutable v_final_sim : float;
  mutable v_final_stats : worker_stats list;
}

type t = {
  lock : Mutex.t;
  work_ready : Condition.t;   (* queue went non-empty, or stopping *)
  space_ready : Condition.t;  (* queue dropped below its bound *)
  done_ready : Condition.t;   (* a task completed *)
  queue : (view * task) Queue.t;
  max_queue : int;
  mutable stopping : bool;
  workers : worker array;
  tracer : Obs.Tracer.t;
  (* pre-interned event names; emitting is lock-free *)
  tr_idle : int;
  tr_sort : int;
  tr_copy : int;
  tr_external : int;
  tr_submit_wait : int;
  tr_install : int;
}

let workers t = Array.length t.workers

let task_run = function
  | Sort { run; _ } | Copy { run; _ } | External { run; _ } -> run

(* An external subtree sort, entirely off-session: the same key-path
   sort the single-threaded path opens, over a private sub-budget carved
   from the view's headroom (sized exactly like the -j1 lease) and a
   private scratch device whose I/O retires into the view's temp
   totals. *)
let run_external_task v w ~arena_blocks ~scan views emit =
  let config = v.v_config in
  let sub =
    Extmem.Memory_budget.carve v.v_ext_budget
      ~who:(Printf.sprintf "external sort (worker %d)" w.index)
      ~blocks:arena_blocks ()
  in
  let temp = Config.scratch_device config ~name:"temp" in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect v.v_stats_lock (fun () ->
          Extmem.Io_stats.accumulate ~into:v.v_temp_io (Extmem.Device.stats temp);
          v.v_temp_sim <- v.v_temp_sim +. Extmem.Device.simulated_ms temp;
          let leak = Extmem.Memory_budget.used_blocks sub in
          if leak > 0 then v.v_leaked <- v.v_leaked + leak);
      Extmem.Device.close temp;
      (* a leak is counted above, never masked by an uncarve raise *)
      Extmem.Memory_budget.uncarve ~force:true sub)
    (fun () ->
      let pending = ref views in
      let input () =
        match !pending with
        | [] -> None
        | x :: rest ->
            pending := rest;
            Some x
      in
      let s =
        Forest.keypath_sort ~budget:sub ~temp ~encoding:config.Config.encoding ~enc:w.scratch
          ~depth_limit:config.Config.depth_limit ~scan input
      in
      Fun.protect ~finally:s.Pipe.close (fun () -> Pipe.drain s.Pipe.pull emit))

(* Run a task into the worker's run writer: each kind drains the same
   stream the single-threaded path drains into a run. *)
let run_task (v, task) w =
  let config = v.v_config in
  let writer = Extmem.Block_writer.create ~buffer:v.v_buffers.(w.index) v.v_devs.(w.index) in
  let emit = Extmem.Block_writer.write_record writer in
  let payloads =
    match task with
    | Sort { payloads; _ } | Copy { payloads; _ } | External { payloads; _ } -> payloads
  in
  let views () = List.map (Entry.View.of_payload config.Config.encoding) payloads in
  (match task with
  | Sort _ ->
      let forest =
        Forest.sort_forest ~depth_limit:config.Config.depth_limit (Forest.build_forest (views ()))
      in
      Pipe.drain
        (Forest.forest_pull ~enc:w.scratch ~packed:(config.Config.encoding = Config.Packed) forest)
        emit
  | Copy _ -> List.iter emit payloads
  | External { scan; arena_blocks; _ } -> run_external_task v w ~arena_blocks ~scan (views ()) emit);
  ignore (Atomic.fetch_and_add v.v_entries.(w.index) (List.length payloads));
  let extent = Extmem.Block_writer.close writer in
  Atomic.incr v.v_tasks_done.(w.index);
  (v.v_devs.(w.index), extent)

let rec worker_loop t w =
  (* idle covers lock acquisition and the empty-queue wait: everything
     the worker does that is not running a task *)
  Obs.Tracer.begin_span t.tracer t.tr_idle;
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.work_ready t.lock
  done;
  if Queue.is_empty t.queue then begin
    Mutex.unlock t.lock;
    (* stopping, nothing left *)
    Obs.Tracer.end_span t.tracer t.tr_idle
  end
  else begin
    let ((v, task) as item) = Queue.pop t.queue in
    Condition.broadcast t.space_ready;
    Mutex.unlock t.lock;
    Obs.Tracer.end_span t.tracer t.tr_idle;
    let tr_task =
      match task with
      | Sort _ -> t.tr_sort
      | Copy _ -> t.tr_copy
      | External _ -> t.tr_external
    in
    Obs.Tracer.begin_span t.tracer tr_task;
    let result = try Ok (run_task item w) with e -> Error e in
    Obs.Tracer.end_span t.tracer tr_task;
    Mutex.lock t.lock;
    v.v_completions <- { c_run = task_run task; c_result = result } :: v.v_completions;
    v.v_in_flight <- v.v_in_flight - 1;
    Condition.broadcast t.done_ready;
    Mutex.unlock t.lock;
    worker_loop t w
  end

let create ?(tracer = Obs.Tracer.null) ~workers:n () =
  if n < 1 then invalid_arg "Sort_pool.create: need at least one worker";
  let t =
    {
      lock = Mutex.create ();
      work_ready = Condition.create ();
      space_ready = Condition.create ();
      done_ready = Condition.create ();
      queue = Queue.create ();
      max_queue = 2 * n;
      stopping = false;
      workers =
        Array.init n (fun i ->
            { index = i; scratch = Extmem.Codec.Enc.create ~capacity:32 (); domain = None });
      tracer;
      tr_idle = Obs.Tracer.intern tracer "worker.idle";
      tr_sort = Obs.Tracer.intern tracer "task:sort";
      tr_copy = Obs.Tracer.intern tracer "task:copy";
      tr_external = Obs.Tracer.intern tracer "task:external";
      tr_submit_wait = Obs.Tracer.intern tracer "pool.submit.wait";
      tr_install = Obs.Tracer.intern tracer "run.install";
    }
  in
  Array.iter
    (fun w ->
      w.domain <-
        Some
          (Domain.spawn (fun () ->
               Obs.Tracer.register_track tracer (Printf.sprintf "worker %d" w.index);
               worker_loop t w)))
    t.workers;
  t

let view t ~(config : Config.t) ~runs ~budget ~ext_budget =
  let n = Array.length t.workers in
  (* the per-worker run-writer buffers are the job's memory: reserved in
     the job budget, which [Session.job_blocks] inflates by exactly this
     total so the blocks visible to the algorithm are unchanged *)
  Extmem.Memory_budget.reserve budget ~who:"pool writer buffers" (n * slab_blocks);
  let bs = config.Config.block_size in
  {
    v_config = config;
    v_runs = runs;
    v_budget = budget;
    v_ext_budget = ext_budget;
    v_devs =
      Array.init n (fun i -> Config.scratch_device config ~name:(Printf.sprintf "runs-w%d" i));
    v_buffers = Array.init n (fun _ -> Bytes.create bs);
    v_tasks_done = Array.init n (fun _ -> Atomic.make 0);
    v_entries = Array.init n (fun _ -> Atomic.make 0);
    v_stats_lock = Mutex.create ();
    v_temp_io = Extmem.Io_stats.create ();
    v_temp_sim = 0.;
    v_leaked = 0;
    v_in_flight = 0;
    v_completions = [];
    v_closed = false;
    v_final_io = None;
    v_final_sim = 0.;
    v_final_stats = [];
  }

let submit t v task =
  Mutex.lock t.lock;
  if t.stopping || v.v_closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Sort_pool.submit: pool or view is shut down"
  end;
  if Queue.length t.queue >= t.max_queue then begin
    (* backpressure: the producer blocks until a worker frees a slot *)
    Obs.Tracer.begin_span t.tracer t.tr_submit_wait;
    while Queue.length t.queue >= t.max_queue do
      Condition.wait t.space_ready t.lock
    done;
    Obs.Tracer.end_span t.tracer t.tr_submit_wait
  end;
  Queue.push (v, task) t.queue;
  v.v_in_flight <- v.v_in_flight + 1;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock

let submit_sort t v ~run payloads = submit t v (Sort { run; payloads })

let submit_copy t v ~run payloads = submit t v (Copy { run; payloads })

let submit_external t v ~run ~scan ~arena_blocks payloads =
  submit t v (External { run; payloads; scan; arena_blocks })

(* Install the finished runs in id order and surface the first failure
   (by run id, i.e. by submission order — not by completion timing) with
   its original exception identity, so fault classification upstream
   sees the same [Device.Fault] it would on the single-threaded path. *)
let install_completions t v cs =
  let cs = List.sort (fun a b -> compare a.c_run b.c_run) cs in
  let first_error = ref None in
  List.iter
    (fun c ->
      match c.c_result with
      | Ok (dev, extent) ->
          Obs.Tracer.instant t.tracer t.tr_install;
          Extmem.Run_store.install v.v_runs c.c_run ~dev ~extent
      | Error e -> if Option.is_none !first_error then first_error := Some e)
    cs;
  match !first_error with None -> () | Some e -> raise e

let drain t v =
  Mutex.lock t.lock;
  while v.v_in_flight > 0 do
    Condition.wait t.done_ready t.lock
  done;
  let cs = v.v_completions in
  v.v_completions <- [];
  Mutex.unlock t.lock;
  install_completions t v cs

let live_io v =
  Array.fold_left
    (fun acc d -> Extmem.Io_stats.add acc (Extmem.Io_stats.snapshot (Extmem.Device.stats d)))
    (Extmem.Io_stats.create ()) v.v_devs

let io v =
  match v.v_final_io with Some s -> Extmem.Io_stats.snapshot s | None -> live_io v

let live_sim_ms v =
  Array.fold_left (fun acc d -> acc +. Extmem.Device.simulated_ms d) 0. v.v_devs

let sim_ms v = if v.v_closed then v.v_final_sim else live_sim_ms v

let temp_io v = Mutex.protect v.v_stats_lock (fun () -> Extmem.Io_stats.snapshot v.v_temp_io)

let temp_sim_ms v = Mutex.protect v.v_stats_lock (fun () -> v.v_temp_sim)

let leaked_blocks v = Mutex.protect v.v_stats_lock (fun () -> v.v_leaked)

let live_worker_stats v =
  Array.to_list
    (Array.init (Array.length v.v_devs) (fun i ->
         {
           w_index = i;
           w_tasks = Atomic.get v.v_tasks_done.(i);
           w_entries = Atomic.get v.v_entries.(i);
           w_io = Extmem.Io_stats.snapshot (Extmem.Device.stats v.v_devs.(i));
         }))

let worker_stats v = if v.v_closed then v.v_final_stats else live_worker_stats v

(* Close a job's view: drop its queued tasks (abort path: their reserved
   run slots are never read, the whole job is being torn down), wait out
   its in-flight task, snapshot the totals, and release the view's
   devices and writer-buffer reservation.  The pool and the other
   tenants' views are untouched. *)
let close_view t v =
  Mutex.lock t.lock;
  if v.v_closed then Mutex.unlock t.lock
  else begin
    (* remove this view's queued tasks, preserving the others' order *)
    let keep = Queue.create () in
    Queue.iter
      (fun ((v', _) as item) ->
        if v' == v then v.v_in_flight <- v.v_in_flight - 1 else Queue.push item keep)
      t.queue;
    Queue.clear t.queue;
    Queue.transfer keep t.queue;
    Condition.broadcast t.space_ready;
    while v.v_in_flight > 0 do
      Condition.wait t.done_ready t.lock
    done;
    v.v_completions <- [];
    v.v_closed <- true;
    Mutex.unlock t.lock;
    v.v_final_stats <- live_worker_stats v;
    v.v_final_io <- Some (live_io v);
    v.v_final_sim <- live_sim_ms v;
    Extmem.Memory_budget.release v.v_budget ~who:"pool writer buffers"
      (Array.length v.v_devs * slab_blocks);
    Array.iter Extmem.Device.close v.v_devs
  end

(* Stop and join the workers.  Views must be closed first (every job
   torn down); any task still queued here belongs to a live view, whose
   drain would deadlock after shutdown, so refuse instead of dropping
   other tenants' work silently. *)
let shutdown t =
  Mutex.lock t.lock;
  if t.stopping then Mutex.unlock t.lock
  else begin
    t.stopping <- true;
    Queue.iter (fun (v, _) -> v.v_in_flight <- v.v_in_flight - 1) t.queue;
    Queue.clear t.queue;
    Condition.broadcast t.work_ready;
    Condition.broadcast t.space_ready;
    Mutex.unlock t.lock;
    Array.iter
      (fun w ->
        match w.domain with
        | Some d ->
            Domain.join d;
            w.domain <- None
        | None -> ())
      t.workers
  end
