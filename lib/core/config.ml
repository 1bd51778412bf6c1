type encoding =
  | Plain
  | Dict
  | Packed

type t = {
  block_size : int;
  memory_blocks : int;
  threshold : int;
  depth_limit : int option;
  degeneration : bool;
  root_fusion : bool;
  encoding : encoding;
  data_stack_blocks : int;
  path_stack_blocks : int;
  keep_whitespace : bool;
  device : Extmem.Device_spec.t;
  jobs : int;
  tracer : Obs.Tracer.t;
}

let make ?(block_size = 4096) ?(memory_blocks = 64) ?threshold ?depth_limit ?(degeneration = true)
    ?(root_fusion = true) ?(encoding = Dict) ?data_stack_blocks ?(path_stack_blocks = 2)
    ?(keep_whitespace = false) ?(device = Extmem.Device_spec.default) ?(jobs = 1)
    ?(tracer = Obs.Tracer.null) () =
  let threshold = Option.value threshold ~default:(2 * block_size) in
  (* The data stack oscillates: entries accumulate until a subtree reaches
     the threshold and is truncated away.  A window that covers twice the
     threshold keeps that oscillation resident and avoids spilling the
     whole document through the stack device — provided the budget leaves
     the fixed buffers (input, path window, output-location window) and a
     minimal 3-block sort arena. *)
  let data_stack_blocks =
    match data_stack_blocks with
    | Some d -> d
    | None ->
        let fixed = 1 + path_stack_blocks + 1 in
        let want = max (2 * threshold / block_size) ((memory_blocks - fixed) / 3) in
        max 1 (min want (memory_blocks - fixed - 3))
  in
  if block_size < 64 then invalid_arg "Config: block_size must be at least 64 bytes";
  if memory_blocks < 8 then invalid_arg "Config: memory_blocks must be at least 8";
  if threshold < block_size then
    invalid_arg "Config: threshold below the block size causes partial-block runs";
  (match depth_limit with
  | Some d when d < 1 -> invalid_arg "Config: depth_limit must be >= 1"
  | Some _ | None -> ());
  if data_stack_blocks < 1 then invalid_arg "Config: data_stack_blocks must be >= 1";
  if path_stack_blocks < 2 then invalid_arg "Config: path_stack_blocks must be >= 2";
  if jobs < 1 || jobs > 64 then invalid_arg "Config: jobs must be between 1 and 64";
  {
    block_size;
    memory_blocks;
    threshold;
    depth_limit;
    degeneration;
    root_fusion;
    encoding;
    data_stack_blocks;
    path_stack_blocks;
    keep_whitespace;
    device;
    jobs;
    tracer;
  }

(* Per-device I/O latency instrumentation: a [Layer.timed] middleware
   whose histograms flush with the trace and whose hook emits one
   Complete event per block I/O onto the emitting domain's track.  Names
   are interned once here, so the hot path is clock reads + ring stores. *)
let attach_tracing t ~name dev =
  let tracer = t.tracer in
  if Obs.Tracer.enabled tracer then begin
    let lat = Extmem.Io_stats.Latency.create () in
    Obs.Tracer.register_latency tracer ~device:name lat;
    let read_id = Obs.Tracer.intern tracer ("read:" ^ name) in
    let write_id = Obs.Tracer.intern tracer ("write:" ^ name) in
    let hook op _block ~start_ns ~dur_ns =
      let id = match op with Extmem.Backend.Read -> read_id | Extmem.Backend.Write -> write_id in
      Obs.Tracer.complete tracer id ~start_ns ~dur_ns
    in
    Extmem.Device.push_layer dev
      (Extmem.Layer.timed ~clock:(fun () -> Obs.Tracer.now_ns tracer) ~hook lat)
  end

(* Unify the debug access-pattern layer with the event tracer: a spec's
   [traced] layer keeps its in-memory block list, and additionally mirrors
   each access as a counter event (value = block index), which renders as
   a block-position-over-time graph on the emitting domain's track. *)
let attach_trace_observer t ~name tr =
  let tracer = t.tracer in
  if Obs.Tracer.enabled tracer then begin
    let read_id = Obs.Tracer.intern tracer ("access.read:" ^ name) in
    let write_id = Obs.Tracer.intern tracer ("access.write:" ^ name) in
    Extmem.Trace.set_observer tr (fun op block ->
        let id = match op with Extmem.Backend.Read -> read_id | Extmem.Backend.Write -> write_id in
        Obs.Tracer.counter tracer id block)
  end

let scratch_device t ~name =
  let built = Extmem.Device_spec.build_scratch t.device ~name ~block_size:t.block_size in
  let dev = built.Extmem.Device_spec.device in
  attach_tracing t ~name dev;
  Option.iter (attach_trace_observer t ~name) built.Extmem.Device_spec.trace;
  dev

let memory_bytes t = t.block_size * t.memory_blocks

let validate_ordering t ordering =
  match t.encoding with
  | Packed when not (Ordering.all_scan_evaluable ordering) ->
      invalid_arg
        "Config: Packed encoding eliminates end-tag entries and cannot carry subtree-derived \
         keys; use a scan-evaluable ordering or the Dict encoding"
  | Packed | Plain | Dict -> ()

let pp_encoding ppf = function
  | Plain -> Format.pp_print_string ppf "plain"
  | Dict -> Format.pp_print_string ppf "dict"
  | Packed -> Format.pp_print_string ppf "packed"

let pp ppf t =
  Format.fprintf ppf
    "{B=%dB; M=%d blocks (%d KiB); t=%dB; depth_limit=%s; degeneration=%b; fusion=%b; encoding=%a}"
    t.block_size t.memory_blocks
    (memory_bytes t / 1024)
    t.threshold
    (match t.depth_limit with Some d -> string_of_int d | None -> "none")
    t.degeneration t.root_fusion pp_encoding t.encoding
