(** NEXSORT: I/O-efficient head-to-toe sorting of XML documents
    (Silberstein & Yang, ICDE 2004, Figure 4).

    {b Sorting phase}: the input is scanned once in document order with a
    streaming parser.  Every unit of XML data is pushed onto an external
    data stack; an external path stack records where each open element's
    entries begin, so when an end tag arrives the on-stack size of the
    now-complete subtree is a subtraction of two stack positions.  A
    subtree at least the sort threshold [t] large (or the whole document)
    is popped, sorted — recursively in memory when it fits the arena, by
    key-path external merge sort otherwise — written out as a sorted run,
    and replaced on the stack by a single run-pointer entry carrying its
    root's sort key.  Subtrees therefore never exceed [k*t] bytes on the
    stack, which is where NEXSORT's advantage over flat external merge
    sort comes from.

    {b Output phase}: the collapsed document is a tree of sorted runs
    connected by run pointers; an explicit depth-first traversal driven by
    an external output-location stack streams it back out as XML text.

    {b Extensions} (§3.2), all selectable via {!Config.t}: graceful
    degeneration into external merge sort on flat inputs (incomplete
    sorted runs merged at the parent's end tag), depth-limited sorting,
    compaction (dictionary coding, end-tag elimination), and complex
    subtree-derived ordering criteria evaluated in a single pass during
    the scan. *)

type gc_stats = {
  gc_minor_words : float;      (** words allocated on the minor heap *)
  gc_major_words : float;      (** words allocated on/promoted to the major heap *)
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
}
(** GC-counter delta ({!Gc.quick_stat}) between opening the sort and
    building its report: the allocation cost of the whole record path. *)

type report = {
  events : int;           (** parser events consumed, the model's [N] *)
  elements : int;         (** element count *)
  text_nodes : int;
  height : int;           (** deepest element level observed *)
  subtree_sorts : int;    (** the paper's [x]: number of subtree collapses *)
  in_memory_sorts : int;
  external_sorts : int;   (** subtree sorts that needed key-path extsort *)
  fragment_runs : int;    (** incomplete runs created by degeneration *)
  fragment_merges : int;  (** elements whose fragments had to be merged *)
  runs_created : int;     (** total sorted runs (incl. intermediates) *)
  run_blocks : int;       (** blocks occupied by all runs (Lemma 4.8) *)
  input_io : Extmem.Io_stats.t;
  output_io : Extmem.Io_stats.t;
  breakdown : (string * Extmem.Io_stats.t) list;
      (** stacks / runs / scratch, from {!Session.io_breakdown} *)
  total_io : Extmem.Io_stats.t;  (** everything, input and output included *)
  simulated_ms : float;
      (** simulated I/O time (session + input + output devices) when cost
          layers are attached; [0.] otherwise *)
  wall_seconds : float;
  gc : gc_stats;
  spans : Obs.Span.t;
      (** phase span tree rooted at ["sort"]: [input_scan] (with nested
          [subtree_sorts] / [fragment_write] / [fragment_merge] /
          [root_sort]) and [output], each with wall time and I/O deltas *)
  metrics : Obs.Json.t;
      (** final values of the session's metric registry (stack paging
          counters, run-store gauges, per-device I/O) *)
  arena : (string * Extmem.Frame_arena.owner_stats) list;
      (** per-owner frame-arena accounting (held/peak blocks and cache
          hit/miss/eviction/writeback counters), sorted by owner name;
          owners persist past lease close and cache detach *)
  jobs : int;  (** configured worker count *)
  workers : Sort_pool.worker_stats list;
      (** per-worker tasks/entries/I/O of the parallel path; empty at
          [jobs = 1] *)
}

val sort_device :
  session:Session.t ->
  ordering:Ordering.t ->
  input:Extmem.Device.t ->
  output:Extmem.Device.t ->
  unit ->
  report
(** Sort the XML document stored on [input] (its {!Extmem.Device.byte_length}
    bytes) and write the fully sorted document to [output].  The devices'
    own I/O counters record the input/output passes; all intermediate I/O
    is on session-private devices, reported in [breakdown].

    [session] is an engine job's session ([Engine.session]; one-job
    callers use [Engine.with_session] or [Engine.sort_string]), and its
    config is the sort's config.  The session is destroyed here on
    every exit path, the ordering check included, so its carved budget
    holds no blocks when the engine releases the job.

    @raise Xmlio.Parser.Error on malformed input.
    @raise Invalid_argument on a configuration/ordering mismatch (see
    {!Config.validate_ordering}). *)

type stream
(** An in-progress sort whose output phase is exposed as an XML event
    stream instead of being serialized to a device — the fusion point for
    downstream consumers (e.g. structural merge of several sorted
    documents).  The scan and all subtree sorts run at {!open_stream}
    time; pulling {!stream_events} drives the root's final merge and the
    run-tree traversal lazily. *)

val open_stream :
  session:Session.t -> ordering:Ordering.t -> input:Extmem.Device.t -> unit -> stream
(** Run the sorting phase on [input] and return the sorted document as a
    pull stream of XML events.  Same setup and raising behaviour as
    {!sort_device}; the session is destroyed at {!stream_finish}, or
    here if this raises. *)

val stream_events : stream -> Xmlio.Event.t option
(** Next event of the sorted document, [None] at the end. *)

val stream_finish : stream -> report
(** Release the stream's resources (idempotent) and return the report.
    [output_io] is zero — the caller owns whatever the events became. *)

val pp_report : Format.formatter -> report -> unit

val metrics_report : ?tool:string -> config:Config.t -> report -> Obs.Report.t
(** The machine-readable run report behind [--metrics]: sections [config]
    (parameter echo), [counts], [io] (the §4.2 per-phase breakdown —
    [input] / [subtree_sorts] / [stack_paging] / [runs] / [output] — plus
    [total] and the raw per-component stats), [pager] (cache totals over
    the session arena; always zero, since a session attaches no cache,
    but kept so every report has the same shape), [arena]
    (per-owner frame accounting), [gc] (allocation words/collections over
    the sort, schema v2), [phases] (the span tree), [metrics] (registry
    dump) and [timing].  [tool] defaults to ["nexsort"]. *)
