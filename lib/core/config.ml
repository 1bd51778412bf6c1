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

(* The event tracer's device subscriber: one Complete event per block I/O
   ([read:<name>]/[write:<name>]) on the emitting domain's track, its
   duration into the device name's latency histograms and, on a device
   built with a [traced] layer, the block index as an [access.*] counter
   (a block-position-over-time graph in Perfetto).  Names are interned
   once here, so the hot path is a histogram update and ring stores. *)
let subscribe_tracer tracer ~name ~access dev =
  let lat = Obs.Tracer.io_latency tracer ~device:name in
  let ids prefix =
    ( Obs.Tracer.intern tracer (prefix ^ "read:" ^ name),
      Obs.Tracer.intern tracer (prefix ^ "write:" ^ name) )
  in
  let pick (r, w) = function Extmem.Device.Read -> r | Extmem.Device.Write -> w in
  let io = ids "" in
  let on_io op ~start_ns ~dur_ns =
    Obs.Tracer.observe_io lat op dur_ns;
    Obs.Tracer.complete tracer (pick io op) ~start_ns ~dur_ns
  in
  let f =
    if access then
      let acc = ids "access." in
      fun op block ~start_ns ~dur_ns ->
        on_io op ~start_ns ~dur_ns;
        Obs.Tracer.counter tracer (pick acc op) block
    else fun op _block ~start_ns ~dur_ns -> on_io op ~start_ns ~dur_ns
  in
  ignore
    (Extmem.Device.subscribe ~clock:(fun () -> Obs.Tracer.now_ns tracer) dev f
      : Extmem.Device.subscription)

let build_device t ~name =
  let built = Extmem.Device_spec.build_scratch t.device ~name ~block_size:t.block_size in
  if Obs.Tracer.enabled t.tracer then
    subscribe_tracer t.tracer ~name ~access:(built.Extmem.Device_spec.trace <> None)
      built.Extmem.Device_spec.device;
  built

let scratch_device t ~name = (build_device t ~name).Extmem.Device_spec.device

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
