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
    together after its merge completes, so a failed flush leaves both
    as they were.

    Folding semantics: operations are replayed in arrival order per
    target, so [delete] then upsert becomes a replace, an upsert after a
    replace merges into the replacement, and a later delete wins over
    everything before it.  The fold is exactly associative with
    sequential application, which the test suite checks by comparing any
    partition of an edit script into flushes against one oracle re-sort
    (the known exception is the {!Struct_merge} text-coalescing rule:
    colliding upserts whose text children differ concatenate, so equal
    text merged in one flush can differ from two flushes).

    The ordering must be scan-evaluable (a {!Struct_merge}
    requirement). *)

type t

type flush_report = {
  batch_ops : int;  (** operation records drained from the queue *)
  batch_docs : int;  (** update documents the batch came from *)
  index_dropped : int;  (** deletes dropped by the positional index *)
  skipped : bool;  (** the whole batch was a no-op: no merge pass ran *)
  merge : Batch_update.report option;  (** [None] when [skipped] *)
  pq : Extsort.Ext_pq.stats;  (** cumulative queue counters at flush time *)
  pq_run_blocks : int;  (** blocks ever spilled to the queue's run store *)
  flush_io : Extmem.Io_stats.t;  (** base-device I/O delta of this flush *)
  base_bytes : int;  (** size of the (new) base document *)
  indexed_keys : int;  (** entries (distinct keys) in the positional index *)
}

val flush_report_json : flush_report -> Obs.Json.t
(** The report as one metrics object (the per-flush entries of the CLI
    and daemon "ingest" sections). *)

val create :
  ?config:Nexsort.Config.t ->
  ?session:Nexsort.Session.t ->
  ordering:Nexsort.Ordering.t ->
  base:string ->
  unit ->
  t
(** Sort [base] (via NEXSORT, under [config]) straight onto the ingest's
    base device, building the positional index from the same output
    stream.  [session] runs the
    initial sort over a pre-built session (the engine path; destroyed by
    the sort as usual).  The ingest holds its own memory budget of
    [config]'s geometry for the queue; flushes additionally use one
    parser/writer block per device, as {!Struct_merge.merge_devices}
    does.
    @raise Xmlio.Parser.Error on malformed input.
    @raise Invalid_argument when the ordering is not scan-evaluable. *)

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
(** The current sorted base document. *)

val base_device : t -> Extmem.Device.t
(** The device holding the current base (a fresh one after each
    non-skipped flush). *)

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
