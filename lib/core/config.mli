(** NEXSORT configuration.

    Mirrors the knobs of the paper's experimental setup: block size and
    memory size (the external-memory model's [B] and [M]), the sort
    threshold [t] (§3: sort a complete subtree once its on-stack size
    reaches [t]; §5 finds roughly twice the block size works well), the
    optional depth limit (§3.2), the graceful-degeneration switch (§3.2),
    and the entry encoding (§3.2's compaction techniques). *)

type encoding =
  | Plain   (** names stored inline; explicit end-tag entries *)
  | Dict    (** names dictionary-coded to integers; explicit end-tag
                entries *)
  | Packed  (** dictionary coding plus end-tag elimination: start entries
                carry level numbers, end tags are reconstructed on output.
                Requires a scan-evaluable ordering. *)

type t = {
  block_size : int;     (** bytes per block (the paper uses 64 KiB) *)
  memory_blocks : int;  (** internal-memory blocks available, the model's
                            [m = M/B]; at least 8 *)
  threshold : int;      (** sort threshold [t] in on-stack bytes *)
  depth_limit : int option;
      (** sort only down to this level (root = 1); [None] = head-to-toe *)
  degeneration : bool;
      (** create incomplete sorted runs when an unfinished subtree fills
          memory, making flat inputs cost the same passes as external
          merge sort *)
  root_fusion : bool;
      (** stream the final (root) subtree sort straight into the output
          phase instead of materialising the root run and re-reading it —
          saves two passes over the document *)
  encoding : encoding;
  data_stack_blocks : int;  (** resident window of the data stack (>= 1) *)
  path_stack_blocks : int;  (** resident window of the path stack (>= 2
                                per the paper's analysis) *)
  keep_whitespace : bool;   (** preserve whitespace-only text nodes *)
  device : Extmem.Device_spec.t;
      (** device stack for the sort's internal devices (stacks, runs,
          scratch): backend plus layers; see {!Extmem.Device_spec}.  The
          endpoints of {!with_input}/{!with_output} get its layers over
          the user's files, not its backend *)
  tracer : Obs.Tracer.t;
      (** event-trace sink for the session ({!Obs.Tracer.null} = tracing
          off, the default).  When enabled, every device from
          {!build_device}, {!with_input} and {!with_output} gets the
          tracer's I/O subscriber, phase spans flow onto the running
          domain's track, and the CLI flushes the trace with
          [--trace FILE] *)
}

val make :
  ?block_size:int ->
  ?memory_blocks:int ->
  ?threshold:int ->
  ?depth_limit:int ->
  ?degeneration:bool ->
  ?root_fusion:bool ->
  ?encoding:encoding ->
  ?ordering:Ordering.t ->
  ?data_stack_blocks:int ->
  ?path_stack_blocks:int ->
  ?keep_whitespace:bool ->
  ?device:Extmem.Device_spec.t ->
  ?tracer:Obs.Tracer.t ->
  unit ->
  t
(** Defaults: 4 KiB blocks, 64 memory blocks, threshold [2 * block_size],
    no depth limit, degeneration and root fusion on, 2 path-stack
    resident blocks, whitespace dropped.  Without [encoding] the
    encoding follows [ordering], the ordering the config will sort by:
    [Packed] when it is {!Ordering.all_scan_evaluable} (every key is known
    at its start tag, so end tags can be dropped), [Dict] otherwise or
    when no ordering is given.  An explicit [encoding] is kept as given;
    [Packed] with a subtree-derived key is rejected by
    {!validate_ordering}.  The data-stack window
    defaults to covering twice the threshold (so the stack's oscillation
    between subtree collapses stays resident), or a third of what the
    other windows and the input buffer leave when that is more, as far
    as the scan phase's plan allows ({!Plan.scan}: the other buffers and
    a 3-block sort arena come first).
    @raise Invalid_argument on inconsistent values (non-positive sizes,
    [memory_blocks < 8], threshold smaller than one block, windows too
    small). *)

val memory_bytes : t -> int

val build_device : t -> name:string -> Extmem.Device_spec.built
(** The device builder for the sort's internal devices (stacks, run
    store, scratch) and for the bench's in-memory endpoints.  It
    builds [name] through the configured {!field-device} spec
    ({!Extmem.Device_spec.build_scratch}) with the config's block size.
    When the config's tracer is enabled, the device also gets the
    tracer's subscriber: per-I/O Complete events named
    [read:<name>]/[write:<name>], the [<name>] latency histograms under
    the trace's [ioLatency], and, if the spec has a [traced] layer,
    [access.read:<name>]/[access.write:<name>] counter events whose value
    is the block index. *)

val with_input : ?name:string -> t -> string -> (Extmem.Device_spec.built -> 'a) -> 'a
(** [with_input t path f] runs [f] on an input endpoint: a read-only
    block device over the file [path] itself, with the file's blocks and
    size as its block count and {!Extmem.Device.byte_length}.  Nothing is
    loaded into memory.  The spec's layers go over the file and the
    tracer subscribes as in {!build_device} (the spec's backend is not
    used: it governs the internal devices only).  [name] (default
    ["input"]) names the device in traces.  The file is closed when [f]
    returns or raises.
    @raise Sys_error when [path] cannot be opened or is not a regular
    file. *)

val with_output : t -> string -> (Extmem.Device_spec.built -> 'a) -> 'a
(** [with_output t path f] runs [f] on an output endpoint: a block device
    named ["output"] over a new temporary file, layered and traced like
    {!with_input}.  When [f] returns, the file is cut to the device's
    {!Extmem.Device.byte_length} and put in place of [path].  An absent
    [path], or a regular file with no other name, is replaced by renaming
    the temporary file (made beside it) over it; a replaced file's
    permission bits and, where permitted, owner carry over.  Any other
    [path] (a symbolic link, a file with hard links, [/dev/null], a pipe)
    keeps its identity and receives a copy of the result.  When [f] (or
    that commit) raises, the temporary file is removed and [path] is left
    as it was, absent or with its old bytes.
    @raise Sys_error when the temporary file cannot be made or the
    result cannot be put in place. *)

val scratch_device : t -> name:string -> Extmem.Device.t
(** [build_device] without the trace and cost handles. *)

val validate_ordering : t -> Ordering.t -> unit
(** @raise Invalid_argument when the encoding is [Packed] but the
    ordering is not scan-evaluable (end-tag elimination discards the
    entries that would carry subtree-derived keys). *)

val pp : Format.formatter -> t -> unit
