type t = {
  config : Config.t;
  budget : Extmem.Memory_budget.t;
  arena : Extmem.Frame_arena.t;
  dict : Xmlio.Dict.t;
  data_stack : Extmem.Ext_stack.t;
  path_stack : Extmem.Ext_stack.t;
  out_stack : Extmem.Ext_stack.t;
  runs : Extmem.Run_store.t;
  temp_stats : Extmem.Io_stats.t;
  mutable temp_sim_ms : float;
  registry : Obs.Registry.t;
  pool : (Sort_pool.t * Sort_pool.view) option;
  poll : unit -> unit;
  enc_scratch : Extmem.Codec.Enc.t;
      (* main-thread encode scratch; workers carry their own *)
  mutable destroyed : bool;
}

(* Teardown probes: verification hooks (lib/verify) register here to
   check resource invariants — budget empty, arena ledger quiescent —
   after every sort, including aborted ones.  Probes run after the
   session's own resources are released, so anything still held points
   at a leak in a phase, not at the session. *)
let destroy_probes : (t -> unit) list ref = ref []

let add_destroy_probe f = destroy_probes := !destroy_probes @ [ f ]

(* Register every component's live counters as pull gauges — sampled only
   when a report is rendered, so the sort itself never pays for them. *)
let register_probes t =
  let reg = t.registry in
  Obs.Probe.ext_stack reg ~prefix:"data" t.data_stack;
  Obs.Probe.ext_stack reg ~prefix:"path" t.path_stack;
  Obs.Probe.ext_stack reg ~prefix:"out" t.out_stack;
  Obs.Probe.run_store reg ~prefix:"store" t.runs;
  Obs.Probe.device reg ~prefix:"data_stack" (Extmem.Ext_stack.device t.data_stack);
  Obs.Probe.device reg ~prefix:"path_stack" (Extmem.Ext_stack.device t.path_stack);
  Obs.Probe.device reg ~prefix:"out_stack" (Extmem.Ext_stack.device t.out_stack);
  Obs.Probe.device reg ~prefix:"runs" (Extmem.Run_store.device t.runs);
  Obs.Probe.frame_arena reg ~prefix:"arena" t.arena

(* How many pool workers serve a job of this config on an engine whose
   pool has [workers] workers (0 without a pool): zero on the
   single-threaded path, where the pool is not used at all. *)
let pool_workers ~workers (config : Config.t) = if config.Config.jobs <= 1 then 0 else workers

(* The size of a job's budget: the algorithm-visible [memory_blocks]
   plus the pool writer buffers the view reserves on top, so the blocks
   the algorithm can see — and every size-based decision — are identical
   to the single-threaded path.  Engine admission carves exactly this. *)
let job_blocks ~workers (config : Config.t) =
  config.Config.memory_blocks + (pool_workers ~workers config * Sort_pool.slab_blocks)

(* Headroom for offloaded external subtree sorts: each in-flight
   external task carves at most the job's full arena, and at most one
   task per worker is in flight. *)
let ext_blocks ~workers (config : Config.t) =
  pool_workers ~workers config * config.Config.memory_blocks

let create ~budget ?pool ~poll (config : Config.t) =
  let arena = Extmem.Frame_arena.create ~budget () in
  let stack_dev name = Config.scratch_device config ~name in
  let dict = Xmlio.Dict.create () in
  let runs = Extmem.Run_store.create (stack_dev "runs") in
  let pool =
    Option.map
      (fun (p, ext_budget) -> (p, Sort_pool.view p ~config ~runs ~budget ~ext_budget))
      pool
  in
  (* The input buffer is charged by the scan pipeline stage (see
     [Sorter.scan_source]), not here.  Each stack leases its own window
     from the arena — "data stack window", "path stack window",
     "output location stack window" — so the fixed reservations now live
     with their owners. *)
  let t =
    {
      config;
      budget;
      arena;
      dict;
      data_stack =
        Extmem.Ext_stack.create ~name:"data stack"
          ~resident_blocks:config.Config.data_stack_blocks ~arena ~borrow:true
          (stack_dev "data-stack");
      path_stack =
        Extmem.Ext_stack.create ~name:"path stack"
          ~resident_blocks:config.Config.path_stack_blocks ~arena (stack_dev "path-stack");
      out_stack =
        Extmem.Ext_stack.create ~name:"output location stack" ~resident_blocks:1 ~arena
          (stack_dev "output-location-stack");
      runs;
      temp_stats = Extmem.Io_stats.create ();
      temp_sim_ms = 0.;
      registry = Obs.Registry.create ();
      pool;
      poll;
      enc_scratch = Extmem.Codec.Enc.create ~capacity:256 ();
      destroyed = false;
    }
  in
  register_probes t;
  t

let sync t =
  match t.pool with
  | Some (p, v) ->
      (* the one barrier: everything between these events is the main
         thread waiting on (and installing behind) worker completions *)
      let tracer = t.config.Config.tracer in
      Obs.Tracer.begin_s tracer "pool.drain";
      Fun.protect ~finally:(fun () -> Obs.Tracer.end_s tracer "pool.drain") (fun () ->
          Sort_pool.drain p v)
  | None -> ()

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    (* the view first: waiting out in-flight worker tasks and returning
       the writer buffers must precede the teardown probes on every exit
       path, including a worker raising mid-sort.  The engine's pool
       survives — only this job's view closes. *)
    (match t.pool with Some (p, v) -> Sort_pool.close_view p v | None -> ());
    Extmem.Ext_stack.close t.data_stack;
    Extmem.Ext_stack.close t.path_stack;
    Extmem.Ext_stack.close t.out_stack;
    Extmem.Device.close (Extmem.Ext_stack.device t.data_stack);
    Extmem.Device.close (Extmem.Ext_stack.device t.path_stack);
    Extmem.Device.close (Extmem.Ext_stack.device t.out_stack);
    Extmem.Device.close (Extmem.Run_store.device t.runs);
    List.iter (fun f -> f t) !destroy_probes
  end

(* Blocks lent to the data-stack window are idle memory, reclaimable at
   any time ([reclaim]), so they still count as arena: this keeps every
   size-based decision (in-memory vs external sort, degeneration)
   independent of how many blocks the stack happens to hold. *)
let arena_bytes t =
  Extmem.Memory_budget.available_bytes t.budget
  + Extmem.Ext_stack.borrowed t.data_stack * Extmem.Memory_budget.block_size t.budget

let reclaim t = Extmem.Ext_stack.shed t.data_stack

let leaked_blocks t =
  match t.pool with Some (_, v) -> Sort_pool.leaked_blocks v | None -> 0

let with_temp t f =
  reclaim t;
  let dev = Config.scratch_device t.config ~name:"temp" in
  Fun.protect
    ~finally:(fun () ->
      Extmem.Io_stats.accumulate ~into:t.temp_stats (Extmem.Device.stats dev);
      t.temp_sim_ms <- t.temp_sim_ms +. Extmem.Device.simulated_ms dev;
      Extmem.Device.close dev)
    (fun () -> f dev)

let encode_entry t e = Entry.encode_to t.config.Config.encoding t.dict t.enc_scratch e

let decode_entry t s = Entry.decode t.config.Config.encoding t.dict s

let view_entry t s = Entry.View.of_payload t.config.Config.encoding s

let io_breakdown t =
  [
    ("data stack", Extmem.Io_stats.snapshot (Extmem.Ext_stack.io_stats t.data_stack));
    ("path stack", Extmem.Io_stats.snapshot (Extmem.Ext_stack.io_stats t.path_stack));
    ("output location stack", Extmem.Io_stats.snapshot (Extmem.Ext_stack.io_stats t.out_stack));
    ( "runs",
      (* runs I/O covers every device runs live on: the store's own plus
         this job's worker scratch devices *)
      let main = Extmem.Io_stats.snapshot (Extmem.Device.stats (Extmem.Run_store.device t.runs)) in
      match t.pool with
      | Some (_, v) -> Extmem.Io_stats.add main (Sort_pool.io v)
      | None -> main );
    ( "scratch",
      (* retired temp devices: the main thread's plus the workers'
         (offloaded external subtree sorts) *)
      let main = Extmem.Io_stats.snapshot t.temp_stats in
      match t.pool with
      | Some (_, v) -> Extmem.Io_stats.add main (Sort_pool.temp_io v)
      | None -> main );
  ]

let total_io t =
  List.fold_left
    (fun acc (_, s) -> Extmem.Io_stats.add acc s)
    (Extmem.Io_stats.create ()) (io_breakdown t)

let simulated_ms t =
  Extmem.Device.simulated_ms (Extmem.Ext_stack.device t.data_stack)
  +. Extmem.Device.simulated_ms (Extmem.Ext_stack.device t.path_stack)
  +. Extmem.Device.simulated_ms (Extmem.Ext_stack.device t.out_stack)
  +. Extmem.Device.simulated_ms (Extmem.Run_store.device t.runs)
  +. (match t.pool with
     | Some (_, v) -> Sort_pool.sim_ms v +. Sort_pool.temp_sim_ms v
     | None -> 0.)
  +. t.temp_sim_ms
