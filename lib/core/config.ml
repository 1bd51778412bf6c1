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
  tracer : Obs.Tracer.t;
}

let make ?(block_size = 4096) ?(memory_blocks = 64) ?threshold ?depth_limit ?(degeneration = true)
    ?(root_fusion = true) ?encoding ?ordering ?data_stack_blocks ?(path_stack_blocks = 2)
    ?(keep_whitespace = false) ?(device = Extmem.Device_spec.default)
    ?(tracer = Obs.Tracer.null) () =
  (* End-tag elimination needs every key known at its start tag; without
     an ordering to check, the encoding stays [Dict]. *)
  let encoding =
    match (encoding, ordering) with
    | Some e, _ -> e
    | None, Some o when Ordering.all_scan_evaluable o -> Packed
    | None, (Some _ | None) -> Dict
  in
  let threshold = Option.value threshold ~default:(2 * block_size) in
  if block_size < 64 then invalid_arg "Config: block_size must be at least 64 bytes";
  if memory_blocks < 8 then invalid_arg "Config: memory_blocks must be at least 8";
  if threshold < block_size then
    invalid_arg "Config: threshold below the block size causes partial-block runs";
  (match depth_limit with
  | Some d when d < 1 -> invalid_arg "Config: depth_limit must be >= 1"
  | Some _ | None -> ());
  if path_stack_blocks < 2 then invalid_arg "Config: path_stack_blocks must be >= 2";
  (* The data stack oscillates: entries accumulate until a subtree reaches
     the threshold and is truncated away.  A window that covers twice the
     threshold keeps that oscillation resident and avoids spilling the
     whole document through the stack device; the scan phase's plan gives
     it that, or a third of what the other stack windows and the input
     buffer leave, as far as the sort arena's minimum allows. *)
  let data_stack_blocks =
    match data_stack_blocks with
    | Some d -> d
    | None ->
        let want = max (2 * threshold / block_size) ((memory_blocks - path_stack_blocks - 2) / 3) in
        Plan.granted
          (Plan.scan ~memory_blocks ~path_blocks:path_stack_blocks ~data_blocks:want)
          "data stack window"
  in
  if data_stack_blocks < 1 then invalid_arg "Config: data_stack_blocks must be >= 1";
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

let trace_device t ~name built =
  if Obs.Tracer.enabled t.tracer then
    subscribe_tracer t.tracer ~name ~access:(built.Extmem.Device_spec.trace <> None)
      built.Extmem.Device_spec.device;
  built

let build_device t ~name =
  trace_device t ~name (Extmem.Device_spec.build_scratch t.device ~name ~block_size:t.block_size)

(* ---- endpoints: devices over the user's own files ---- *)

let endpoint t ~name device = trace_device t ~name (Extmem.Device_spec.apply_layers t.device device)

let with_input ?(name = "input") t path f =
  let built =
    endpoint t ~name
      (Extmem.Device.file ~name ~readonly:true ~block_size:t.block_size ~path ())
  in
  Fun.protect
    ~finally:(fun () -> Extmem.Device.close built.Extmem.Device_spec.device)
    (fun () -> f built)

let temp_serial = Atomic.make 0

(* A new empty file named after [path] in [dir], created exclusively. *)
let rec create_temp ~perm ~dir path =
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.%d.%d.tmp" (Filename.basename path) (Unix.getpid ())
         (Atomic.fetch_and_add temp_serial 1))
  in
  match Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ] perm with
  | fd ->
      Unix.close fd;
      tmp
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> create_temp ~perm ~dir path

(* Give [tmp] the owner (where permitted) and permission bits of the file
   [st] it is to replace; chown first, as it may clear set-id bits. *)
let take_identity tmp st =
  (try Unix.chown tmp st.Unix.st_uid st.Unix.st_gid with Unix.Unix_error _ -> ());
  Unix.chmod tmp st.Unix.st_perm

let copy_file src dst =
  In_channel.with_open_bin src (fun ic ->
      Out_channel.with_open_bin dst (fun oc ->
          let buf = Bytes.create 65536 in
          let rec pump () =
            match In_channel.input ic buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
                Out_channel.output oc buf 0 n;
                pump ()
          in
          pump ()))

(* The output is written to a temporary file and only becomes [path] once
   [f] has returned.  An absent file, or a regular file with no other
   name, is replaced by renaming the temporary file, made beside it, over
   it.  Anything else keeps its identity and receives a copy: a symbolic
   link (the file it names gets the bytes, or is created), a file with
   hard links, /dev/null or a pipe (which a rename must not replace).
   Until the rename the temporary file is private to its owner, unless
   [path] is new and gets what an ordinary new file gets. *)
let with_output t path f =
  let name = "output" in
  let fail e = raise (Extmem.Backend.sys_error path e) in
  let replace, like =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_REG; st_nlink; _ } as st -> (st_nlink = 1, Some st)
    | _ -> (false, None)
    | exception Unix.Unix_error _ -> (true, None)
  in
  let dir = if replace then Filename.dirname path else Filename.get_temp_dir_name () in
  let perm = if replace && Option.is_none like then 0o666 else 0o600 in
  let tmp = try create_temp ~perm ~dir path with Unix.Unix_error (e, _, _) -> fail e in
  match
    let built =
      endpoint t ~name (Extmem.Device.file ~name ~block_size:t.block_size ~path:tmp ())
    in
    let dev = built.Extmem.Device_spec.device in
    Fun.protect
      ~finally:(fun () -> Extmem.Device.close dev)
      (fun () ->
        let v = f built in
        Extmem.Device.flush dev;
        (try
           Unix.truncate tmp (Extmem.Device.byte_length dev);
           if replace then (
             Option.iter (take_identity tmp) like;
             Unix.rename tmp path)
         with Unix.Unix_error (e, _, _) -> fail e);
        if not replace then copy_file tmp path;
        v)
  with
  | v ->
      if not replace then Sys.remove tmp;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt

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
