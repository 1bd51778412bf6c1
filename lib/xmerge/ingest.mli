(** Incremental sorted maintenance: continuous update ingestion.

    A NEXSORTed document is only useful under heavy traffic if edits do
    not force a full re-sort.  This module keeps a sorted base document
    live under a stream of subtree updates: each update document
    ({!Batch_update} format — subtrees to upsert, [__op="delete"] /
    [__op="replace"] markers) is decomposed into per-subtree operation
    records and buffered in an external priority queue
    ({!Extsort.Ext_pq}) under the document ordering (key-path order,
    arrival order as the tiebreak).  A batch {!flush} drains the queue —
    already in document order — folds the operations into one combined
    batch-update document, and merges it into the base in a single
    streaming pass ({!Batch_update.apply_events} over devices), writing
    the new base to a fresh scratch device (devices are
    append-allocated and cannot be rewound; the old base is dropped and
    reclaimed with the in-memory backend).  Applying [k]
    buffered updates therefore costs one merge pass (read base + write
    base), not one full re-sort, and nothing at all between flushes.

    A {!Extmem.Btree} over the top-level subtree keys is maintained as
    the positional index of the base (§1's "additional index"): it maps
    each root child's key to its byte offset in the base document, and
    lets a flush drop delete operations whose top-level subtree does not
    exist — a batch of only such no-ops skips the merge pass entirely.
    The index is built in the same pass that writes its base (the initial
    sort's output, or a flush's merge output): the writer reports each
    top-level start tag's key and offset, and those arrive in key order,
    so they are bulk-loaded bottom-up onto a fresh index device.  Keys
    are {!Nexsort.Key.encode}d and compared by
    {!Nexsort.Key.compare_cursors}.  A flush swaps base and index in
    together after its merges complete, so a failed flush leaves both
    as they were.

    Folding semantics: operations are replayed in arrival order per
    target, so [delete] then upsert becomes a replace, an upsert after a
    replace merges into the replacement, and a later delete wins over
    everything before it.  Texts and unkeyed elements (the
    {!Nexsort.Key.Null} run of a node) keep their document order, and
    {!Struct_merge} matches them positionally, which no fold of two
    documents can reproduce; so an element that holds text or has no key
    is never split into several records, and a flush runs one merge
    pass per stretch of documents in which no two feed the same Null run
    (one pass when no two documents feed one).  A flush thus gives what
    applying its documents one at a time gives, which the test suite
    checks by comparing any partition of an edit script into flushes
    against one oracle re-sort.

    The ordering must be scan-evaluable (a {!Struct_merge}
    requirement). *)

type t

type flush_report = {
  batch_ops : int;  (** operation records drained from the queue *)
  batch_docs : int;  (** update documents the batch came from *)
  index_dropped : int;  (** deletes dropped by the positional index *)
  skipped : bool;  (** the whole batch was a no-op: no merge pass ran *)
  passes : int;  (** merge passes run: more than one when documents share a Null run *)
  merge : Batch_update.report option;
      (** [None] when [skipped]; counters summed over the passes, spans
          of the last *)
  pq : Extsort.Ext_pq.stats;  (** cumulative queue counters at flush time *)
  pq_run_blocks : int;  (** blocks ever spilled to the queue's run store *)
  flush_io : Extmem.Io_stats.t;  (** base-device I/O delta of this flush *)
  base_bytes : int;  (** size of the (new) base document *)
  indexed_keys : int;  (** entries (distinct keys) in the positional index *)
}

val flush_report_json : flush_report -> Obs.Json.t
(** The report as one metrics object (the per-flush entries of the CLI
    and daemon "ingest" sections). *)

val create_device :
  session:Nexsort.Session.t ->
  ordering:Nexsort.Ordering.t ->
  base:Extmem.Device.t ->
  unit ->
  t
(** Sort the document on the device [base] (via NEXSORT, over [session],
    an engine job's session, which the sort destroys as usual; [base] is
    a device of the session config's block size, such as a
    {!Nexsort.Config.with_input} endpoint) straight onto the ingest's
    base device, building the positional index from the same output
    stream.  [base] is only read during the call.  The ingest holds its
    own memory budget of the session config's geometry for the queue;
    flushes additionally use one parser/writer block per device, as
    {!Struct_merge.merge_devices} does.
    @raise Xmlio.Parser.Error on malformed input.
    @raise Invalid_argument when the ordering is not scan-evaluable. *)

val create : ?config:Nexsort.Config.t -> ordering:Nexsort.Ordering.t -> base:string -> unit -> t
(** {!create_device} over an in-memory device holding the string [base],
    on the session of a one-job engine ([Engine.with_session]) of
    [config] (default [Nexsort.Config.make ~ordering ()]). *)

val add_update : t -> string -> unit
(** Parse an update document and buffer its operations.  No base I/O:
    the operations go to the queue (spilling externally past its
    insert-tier budget).
    @raise Xmlio.Tree.Malformed / [Xmlio.Parser.Error] on a malformed
    document (the queue is left as before the call).
    @raise Invalid_argument on an [__op] marker on the root. *)

val pending : t -> int
(** Operations buffered and not yet flushed. *)

val flush : t -> flush_report
(** Merge every buffered operation into the base in one pass (or skip
    the pass when the index proves the batch a no-op).  Idempotent on an
    empty queue: returns a [skipped] report with zero I/O. *)

val contents : t -> string
(** The current sorted base document, as one string. *)

val base_device : t -> Extmem.Device.t
(** The device holding the current base (a fresh one after each
    non-skipped flush); {!Extmem.Device.copy} streams it to a file
    without the whole-document string of {!contents}. *)

val index_keys : t -> int
(** Entries in the positional index: the distinct keys of the base's
    top-level subtrees. *)

val index_device : t -> Extmem.Device.t
(** The device holding the current positional index (a fresh one after
    each non-skipped flush, holding that generation's tree only). *)

val find_offset : t -> Nexsort.Key.t -> int option
(** Position of the top-level subtree with the given key in the current
    base document, from the positional index: the reader's byte offset
    just after the subtree's start tag.  [None] when the key is absent
    (or the index is incomplete). *)

val destroy : t -> unit
(** Release the queue and every lease; the budget returns to zero.
    Idempotent. *)
