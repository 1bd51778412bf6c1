(** External-memory priority queue on the extsort substrate.

    Wei & Yi's equivalence between priority queues and sorting in
    external memory says a sorter's machinery is already morally a PQ;
    this module makes that literal.  The insert tier is an in-memory
    heap byte-accounted under a {!Extmem.Frame_arena} lease; when it
    overflows, the heap is drained in sorted order into a fresh run in a
    private {!Extmem.Run_store}, and delete-min lazily merges the open
    runs through a tournament of block readers (one leased frame each,
    exactly the {!Multiway} discipline).  When the reader fan-in would
    exceed its block allowance, all open runs are compacted into one.

    Memory accounting: with [blocks] available in the budget at
    creation, [buffer_blocks] frames back the insert tier (one of them
    is slack for the run writer during spills and compactions, so the
    tier's byte capacity is [(buffer_blocks - 1) * block_size]) and the
    remaining [blocks - buffer_blocks] frames bound the reader fan-in.
    Two of the fan-in frames are held for the queue's lifetime: a queue
    that can always open two readers can always compact its runs down
    to one, so queues sharing a budget degrade to narrower merges
    instead of wedging each other's spill paths.  Both sides live in
    named leases, so exhaustion and leaks name the queue in the per-who
    ledger.

    [meld] moves the other queue's open run readers into this queue as
    they stand (head record, position and frame): run payloads stay on
    the donor's device and are never copied or re-read.  Both queues
    must use the same block size.

    Run readers consume their runs ({!Extmem.Run_store.open_run}): a run
    block is freed on the in-memory device once it has been read past,
    so the store's device holds only what is still queued in runs. *)

type t

type stats = {
  inserts : int;          (** records ever inserted (meld moves excluded) *)
  deletes : int;          (** successful delete-mins *)
  spills : int;           (** insert-tier overflows written as runs *)
  spilled_records : int;  (** records across all spills *)
  compactions : int;      (** fan-in overflow merges (melds included) *)
  melds : int;            (** queues absorbed *)
}

val create :
  ?arena:Extmem.Frame_arena.t ->
  ?buffer_blocks:int ->
  ?spans:Obs.Spans.t ->
  budget:Extmem.Memory_budget.t ->
  temp:Extmem.Device.t ->
  cmp:(string -> string -> int) ->
  unit ->
  t
(** [create ~budget ~temp ~cmp ()] is an empty queue over records
    ordered by [cmp], spilling to [temp].  [buffer_blocks] sizes the
    insert tier (default: half the blocks available at creation,
    clamped so the reader side keeps at least 2); [spans] wraps spill
    and compaction phases in [pq_spill]/[pq_compact] spans.
    @raise Extmem.Memory_budget.Exhausted when fewer than 4 blocks are
    available. *)

val length : t -> int
(** Live records (inserted or melded in, not yet deleted). *)

val is_empty : t -> bool

val insert : t -> string -> unit
(** May spill (and then compact) when the insert tier overflows.
    @raise Extmem.Memory_budget.Exhausted when a spill cannot lease its
    reader frame even after compaction. *)

val peek_min : t -> string option
(** The minimum under [cmp] without removing it. *)

val delete_min : t -> string option
(** Remove and return the minimum; [None] on an empty queue.  Lazy: at
    most one record is pulled from one run reader. *)

val meld : t -> t -> unit
(** [meld t other] moves all of [other]'s records into [t] and destroys
    [other].  [other]'s in-memory tier is re-inserted through [t] (and
    may spill); its open run readers move over as described above.
    @raise Invalid_argument when the block sizes differ. *)

val run_count : t -> int
(** Open (live) runs backing the queue right now. *)

val run_blocks : t -> int
(** Total blocks ever written to the queue's run store — the spill I/O
    footprint, including space consumed delete-mins have not
    reclaimed. *)

val stats : t -> stats

val destroy : t -> unit
(** Close every reader and lease; the queue's budget footprint returns
    to zero.  Idempotent; using the queue afterwards is a programming
    error. *)
