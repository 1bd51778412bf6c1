(** Observability: metrics, phase spans and machine-readable run reports.

    The paper's whole argument is quantitative — block I/Os per phase
    (§4.2) and access-pattern shape (§1) — so every run of the system
    should be able to explain where its I/Os went without ad-hoc printf
    plumbing.  This library provides the three pieces:

    - a {e metrics registry} ({!Registry}) of named counters, gauges and
      log2-bucketed histograms, populated by pull (gauges read component
      state on demand) so that registering a metric never perturbs the
      measured system;
    - hierarchical {e spans} ({!Spans}) that capture wall time, minor
      words and an {!Extmem.Io_stats} delta per named phase, merging
      repeated phases of the same name (a sort performs thousands of
      subtree sorts but the report wants one aggregated row);
    - a dependency-free JSON encoder/decoder ({!Json}) and a report
      builder ({!Report}) that renders either one JSON document or
      newline-delimited JSON, with a schema version field for diffing
      across commits.

    Everything here only {e observes}: no function in this library
    performs device I/O, so default-path I/O counts are byte-identical
    with and without instrumentation. *)

(** Minimal JSON values: encoder and decoder, no external dependencies. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float  (** non-finite floats encode as [null] *)
    | Str of string
    | List of t list
    | Obj of (string * t) list  (** key order is preserved *)

  val to_string : ?minify:bool -> t -> string
  (** Render; pretty-printed with two-space indent by default (top-level
      keys of an object land at column 2, which the cram tests grep), or
      on one line with [~minify:true]. *)

  val of_string : string -> t
  (** Parse a JSON document.  Numbers without ['.'], ['e'] or ['E'] become
      {!Int}, everything else {!Float}.
      @raise Failure on malformed input. *)

  val member : string -> t -> t option
  (** [member k (Obj ...)] is the value under key [k]; [None] on a
      missing key or a non-object. *)

  val io_stats : Extmem.Io_stats.t -> t
  (** [{"reads": r, "writes": w, "total": r+w}]. *)
end

(** A monotonically increasing named count (events, bytes, retries). *)
module Counter : sig
  type t

  val value : t -> int
  val incr : t -> unit
  val add : t -> int -> unit
end

(** Value distributions over fixed log2 buckets.

    Bucket [0] holds observations [<= 0]; bucket [i >= 1] holds values
    [v] with [2^(i-1) <= v < 2^i].  The bucket array is sized so that
    [max_int] lands in the last bucket — no observation is ever dropped
    or clamped. *)
module Histogram : sig
  type t

  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int
  val min_value : t -> int
  (** Smallest observation; [0] when empty. *)

  val max_value : t -> int
  val bucket_index : int -> int
  (** The bucket an observation falls into (exposed for tests). *)

  val buckets : t -> (int * int) list
  (** Non-empty buckets as [(upper_bound_exclusive, count)] pairs in
      ascending order; the last bucket reports [max_int] as its bound. *)
end

(** A registry: the named metrics of one run, in registration order.

    Counters and histograms are push-updated by their owners; gauges are
    callbacks sampled at snapshot time, so registering one costs the
    measured system nothing. *)
module Registry : sig
  type t

  val create : unit -> t

  val counter : t -> ?unit_:string -> string -> Counter.t
  (** Find-or-create: registering the same name twice returns the
      existing counter (units must then agree).
      @raise Invalid_argument if the name is already a gauge/histogram. *)

  val gauge : t -> ?unit_:string -> string -> (unit -> float) -> unit
  (** Register a sampled value.  Re-registering a name replaces the
      callback (a component restarted within one session wins). *)

  val histogram : t -> ?unit_:string -> string -> Histogram.t

  type snapshot = (string * float) list
  (** Metric values by name, in registration order.  Histograms
      contribute [name.count] and [name.sum] entries. *)

  val snapshot : t -> snapshot

  val diff : snapshot -> snapshot -> snapshot
  (** [diff now before]: componentwise difference; names missing from
      [before] count from zero, names missing from [now] are dropped. *)

  val snapshot_to_json : snapshot -> Json.t
  val snapshot_of_json : Json.t -> snapshot
  (** Inverse of {!snapshot_to_json} (for report round-trips).
      @raise Failure on a value that is not a number. *)

  val to_json : t -> Json.t
  (** Full structured dump: [{"counters": ..., "gauges": ...,
      "histograms": ...}], each keyed by metric name with its unit. *)
end

(** Session-wide low-overhead event tracer.

    Each registered domain owns a private bounded ring of fixed-size
    records (parallel int arrays): emitting is a monotonic-clock read
    plus a few array stores — no allocation, no locking, and when the
    ring is full records are dropped and counted rather than blocking.
    The disabled tracer ({!Tracer.null}) reduces every emit to one
    boolean test.  Once no other domain is emitting, {!Tracer.to_json}
    renders Chrome [trace_event] JSON (loadable in Perfetto /
    [chrome://tracing]; analyse offline with [nextrace]). *)
module Tracer : sig
  type t

  (** Record kinds: [Begin]/[End] bracket a span on the emitting track,
      [Instant] is a point event, [Count] carries a value, [Complete] is
      a closed span with explicit start and duration (used for per-I/O
      latencies). *)
  type kind = Begin | End | Instant | Count | Complete

  type record = {
    r_kind : kind;
    r_name : string;
    r_ts_ns : int;  (** ns since the tracer epoch (Complete: span start) *)
    r_value : int;  (** Count: value; Complete: duration in ns *)
  }

  val null : t
  (** The disabled tracer: every operation is a no-op. *)

  val create : ?capacity:int -> unit -> t
  (** Enabled tracer whose rings hold [capacity] records per track
      (default 65536).  The calling domain is registered as track
      ["main"]. *)

  val enabled : t -> bool

  val register_track : t -> string -> unit
  (** Bind the calling domain to a fresh named track.  Events emitted by
      an unregistered domain are discarded. *)

  val intern : t -> string -> int
  (** Intern an event name, returning the id to pass to the emitters.
      Takes a lock — hot call sites intern once at setup. *)

  val now_ns : t -> int
  (** Monotonic ns since the tracer epoch. *)

  val counter : t -> int -> int -> unit

  val complete : t -> int -> start_ns:int -> dur_ns:int -> unit
  (** Emit a closed span with an explicit start and duration (both ns,
      start relative to the epoch). *)

  val begin_s : t -> string -> unit
  (** Open a span named by string (interned per call, for coarse call
      sites); {!end_s} closes it. *)

  val end_s : t -> string -> unit

  type io_latency
  (** One device name's read and write latency histograms ({!Histogram},
      ns). *)

  val io_latency : t -> device:string -> io_latency
  (** Find or create the histograms of the named device; every device of
      that name shares them.  They flush under ["ioLatency"], in creation
      order.  On a disabled tracer the result is a fresh pair that is
      never flushed. *)

  val observe_io : io_latency -> Extmem.Backend.op -> int -> unit
  (** Record one I/O's duration (ns) in the read or write histogram.
      Safe to call from several domains at once. *)

  val dropped : t -> int
  (** Total records dropped to full rings, across all tracks. *)

  val reset : t -> unit
  (** Zero every ring and forget the device latency histograms, keeping the
      epoch, interned names and domain bindings.  Only call while no
      other domain is emitting. *)

  val record_to_json : tid:int -> record -> Json.t
  (** One record as a Chrome [trace_event] object ([ph] B/E/i/C/X;
      timestamps in fractional microseconds). *)

  val record_of_json : Json.t -> record * int
  (** Inverse of {!record_to_json}; returns the record and its track id.
      Raises [Failure] on metadata or malformed events. *)

  val to_json : t -> Json.t
  (** Full trace: [{"traceEvents": [...], "displayTimeUnit", "otherData",
      "ioLatency"}].  Each track contributes a [thread_name] metadata
      event, its records in emission order, and a final ["trace.dropped"]
      counter.  Call only while no other domain is emitting. *)

  val write_file : t -> string -> unit
  (** Minified {!to_json} to [path].  Raises [Sys_error] on I/O
      failure. *)
end

(** One aggregated phase of a run: a node of the span tree. *)
module Span : sig
  type t = {
    name : string;
    mutable count : int;        (** times the phase was entered *)
    mutable wall_s : float;     (** total wall time inside, seconds *)
    io : Extmem.Io_stats.t;     (** I/O delta accumulated inside *)
    mutable minor_words : float;
        (** words allocated inside (the minor-heap meter's delta), on
            the calling domain *)
    mutable children : t list;  (** sub-phases, in first-entry order *)
  }

  val find : t -> string -> t option
  (** Direct child by name. *)

  val to_json : t -> Json.t
  (** [{"name", "count", "wall_s", "io", "minor_words", "children"}],
      recursively. *)
end

(** Span recorder: scoped phase measurement over caller-supplied meters.

    A recorder owns a root span and a stack of open spans.  Entering a
    named phase under the same parent a second time merges into the
    existing child: counts and deltas accumulate, so hot phases stay one
    row in the report.  Parents include their children's costs (the
    meters are cumulative). *)
module Spans : sig
  type t

  val create :
    ?clock:(unit -> float) ->
    ?io:(unit -> Extmem.Io_stats.t) ->
    ?minor_words:(unit -> float) ->
    ?tracer:Tracer.t ->
    string ->
    t
  (** [create name] starts a recorder whose root span is [name].
      [clock] defaults to [Unix.gettimeofday]; [io] is the cumulative
      meter sampled at phase boundaries and defaults to constant zero
      (spans then measure no I/O); [minor_words]
      defaults to [Gc.minor_words], so every span also records the words
      allocated inside it.  When [tracer]
      (default {!Tracer.null}) is enabled, every span entry/exit also
      emits a Begin/End event onto the calling domain's track, so the
      aggregate phase tree and the timeline come from one set of call
      sites. *)

  val with_span : t -> string -> (unit -> 'a) -> 'a
  (** Run the scope inside the named phase.  Exception-safe: the span is
      closed (and its deltas recorded) even when the scope raises. *)

  val depth : t -> int
  (** Number of currently open spans, root included (for tests). *)

  val close : t -> Span.t
  (** Close every still-open span, finalize the root's deltas, and return
      the span tree.  Further {!with_span} calls are an error. *)
end

(** Registration helpers wiring [extmem] components into a registry.

    These register pull gauges reading the component's live counters;
    they are the catalogue of standard metric names (see DESIGN.md
    "Observability" for the full table of names, units and emitters). *)
module Probe : sig
  val device : Registry.t -> prefix:string -> Extmem.Device.t -> unit
  (** [dev.<prefix>.reads|writes] (blocks), [dev.<prefix>.blocks]
      (allocated size), [dev.<prefix>.live_blocks] (allocated and not
      discarded) and [dev.<prefix>.peak_live_blocks] (the most ever live
      at once). *)

  val ext_stack : Registry.t -> prefix:string -> Extmem.Ext_stack.t -> unit
  (** [stack.<prefix>.pushes|pops] (entries),
      [stack.<prefix>.page_ins|writebacks] (blocks),
      [stack.<prefix>.high_water] (bytes). *)

  val run_store : Registry.t -> prefix:string -> Extmem.Run_store.t -> unit
  (** [runs.<prefix>.count] (runs), [runs.<prefix>.blocks],
      [runs.<prefix>.bytes] (payload, tails included) and
      [runs.<prefix>.inline_bytes] (the tails: bytes carried in run
      pointers instead of device blocks). *)

  val frame_arena : Registry.t -> prefix:string -> Extmem.Frame_arena.t -> unit
  (** [<prefix>.held]: frames held over all arena owners, sampled at
      render time.  The per-owner breakdown is emitted separately in the
      metrics report's "arena" section. *)
end

(** Machine-readable run reports: an ordered list of named JSON sections
    under a schema version. *)
module Report : sig
  val schema_version : int
  (** Bumped whenever the meaning or layout of a section changes. *)

  type t

  val create : tool:string -> t
  val add : t -> string -> Json.t -> unit
  (** Append a top-level section; re-adding a name replaces it in
      place. *)

  val to_json : t -> Json.t
  (** [{"schema_version": ..., "tool": ..., <sections in order>}]. *)

  val to_string : ?minify:bool -> t -> string

  val to_ndjson : t -> string
  (** One line per section:
      [{"schema_version":..,"tool":..,"section":NAME,"data":..}]. *)

  val write_file : ?ndjson:bool -> t -> string -> unit
  (** Write to a path, or to stdout when the path is ["-"].  [".ndjson"]
      paths and [~ndjson:true] select the newline-delimited format. *)
end
