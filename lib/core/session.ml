type t = {
  config : Config.t;
  budget : Extmem.Memory_budget.t;
  arena : Extmem.Frame_arena.t;
  plan : Plan.t;
  dict : Xmlio.Dict.t;
  data_stack : Extmem.Ext_stack.t;
  path_stack : Extmem.Ext_stack.t;
  out_stack : Extmem.Ext_stack.t;
  runs : Extmem.Run_store.t;
  temp : Extmem.Device.t;
  registry : Obs.Registry.t;
  poll : unit -> unit;
  enc_scratch : Extmem.Codec.Enc.t;
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
  Obs.Probe.device reg ~prefix:"temp" t.temp;
  Obs.Probe.frame_arena reg ~prefix:"arena" t.arena

let create ~budget ~poll (config : Config.t) =
  let arena = Extmem.Frame_arena.create ~budget () in
  let device name = Config.scratch_device config ~name in
  let dict = Xmlio.Dict.create () in
  let runs = Extmem.Run_store.create (device "runs") in
  (* The input buffer is charged by the scan pipeline stage (see
     [Sorter.scan_source]), not here.  Each stack leases the window the
     scan phase grants it from the arena, under its own name. *)
  let scan =
    Plan.scan ~memory_blocks:config.Config.memory_blocks
      ~path_blocks:config.Config.path_stack_blocks ~data_blocks:config.Config.data_stack_blocks
  in
  let stack ?elastic name dev =
    Extmem.Ext_stack.create ~name ~resident_blocks:(Plan.granted scan (name ^ " window")) ~arena
      ?elastic (device dev)
  in
  let data_stack = stack ~elastic:true "data stack" "data-stack" in
  let path_stack = stack "path stack" "path-stack" in
  let out_stack = stack "output location stack" "output-location-stack" in
  let t =
    {
      config;
      budget;
      arena;
      plan = Plan.create ~budget ~scan ~data:data_stack ~path:path_stack ~out:out_stack;
      dict;
      data_stack;
      path_stack;
      out_stack;
      runs;
      temp = device "temp";
      registry = Obs.Registry.create ();
      poll;
      enc_scratch = Extmem.Codec.Enc.create ~capacity:256 ();
      destroyed = false;
    }
  in
  register_probes t;
  t

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    Extmem.Ext_stack.close t.data_stack;
    Extmem.Ext_stack.close t.path_stack;
    Extmem.Ext_stack.close t.out_stack;
    Extmem.Device.close (Extmem.Ext_stack.device t.data_stack);
    Extmem.Device.close (Extmem.Ext_stack.device t.path_stack);
    Extmem.Device.close (Extmem.Ext_stack.device t.out_stack);
    Extmem.Device.close (Extmem.Run_store.device t.runs);
    Extmem.Device.close t.temp;
    List.iter (fun f -> f t) !destroy_probes
  end

let encode_entry t e = Entry.encode_to t.config.Config.encoding t.dict t.enc_scratch e

let view_entry t s = Entry.View.of_payload t.config.Config.encoding s

let io_breakdown t =
  [
    ("data stack", Extmem.Io_stats.snapshot (Extmem.Ext_stack.io_stats t.data_stack));
    ("path stack", Extmem.Io_stats.snapshot (Extmem.Ext_stack.io_stats t.path_stack));
    ("output location stack", Extmem.Io_stats.snapshot (Extmem.Ext_stack.io_stats t.out_stack));
    ("runs", Extmem.Io_stats.snapshot (Extmem.Device.stats (Extmem.Run_store.device t.runs)));
    ("scratch", Extmem.Io_stats.snapshot (Extmem.Device.stats t.temp));
  ]

let total_io t =
  List.fold_left
    (fun acc (_, s) -> Extmem.Io_stats.add acc s)
    (Extmem.Io_stats.create ()) (io_breakdown t)
