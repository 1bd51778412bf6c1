(** External-memory B+-trees.

    The "additional index" of the paper's §1: the naive nested-loop merge
    scans half of a subtree on average to find a matching element —
    {e "unless there is an additional index"}.  This is that index: a
    disk-resident B+-tree over a {!Device.t}, accessed page by page
    through its own buffer pool, so hot paths stay cached within a
    bounded frame budget.  The pool's frames are a {!Frame_arena.lease}
    (owner ["btree"]) taken from the arena the caller passes; the page
    layout and the one replacement rule, least-recently-used, are the
    tree's own.  A miss takes a free frame first, else evicts the
    least-recently-touched page, writing it back only when dirty.
    The indexed-merge comparator in [bench/main.exe motivation] is built
    on it.

    Keys and values are byte strings under a caller-supplied total order
    on keys.  Structure: a meta page (root pointer, entry count), internal
    pages of separator keys and child pointers, and leaf pages chained
    left-to-right for range scans.  Nodes split when their serialized form
    outgrows the block.  The usage here is build-once, query-many, so
    there is no deletion.

    Keys may appear at most once ({!insert} replaces).  A single key/value
    pair must fit a quarter block, guaranteeing internal fan-out of at
    least two. *)

type t

val create :
  arena:Frame_arena.t ->
  ?frames:int ->
  cmp:(string -> string -> int) ->
  Device.t ->
  t
(** Initialise a fresh tree on an empty device region (allocates the meta
    page and an empty root leaf).  [frames] (default 8, at least 1) is
    the size of the buffer pool, leased from [arena] under ["btree"].
    @raise Memory_budget.Exhausted when the arena's budget cannot cover
    the frames. *)

val length : t -> int
(** Number of entries. *)

val insert : t -> key:string -> value:string -> unit
(** Insert or replace.  @raise Invalid_argument when key + value exceed a
    quarter of the block size. *)

val find : t -> string -> string option

val mem : t -> string -> bool

val iter_from : t -> string -> (string -> string -> bool) -> unit
(** [iter_from t k f] visits entries with key >= [k] in ascending order,
    until [f key value] returns [false] or the entries run out. *)

val iter : t -> (string -> string -> unit) -> unit
(** All entries in ascending key order. *)

val flush : t -> unit
(** Write all dirty pages back to the device. *)

val close : t -> unit
(** Return the buffer pool's frames to the arena and close its lease,
    writing nothing back ({!flush} first to persist).  Idempotent; the
    tree must not be used afterwards. *)

type stats = {
  hits : int;        (** page accesses served by a resident frame *)
  misses : int;      (** page accesses that faulted the block in *)
  evictions : int;   (** misses that displaced a resident page *)
  writebacks : int;  (** dirty pages written to the device *)
}

val stats : t -> stats
(** The buffer pool's cumulative counters. *)

val height : t -> int
(** Levels from root to leaves (1 = root is a leaf). *)

(** {1 Bulk loading}

    Bottom-up construction from entries already in ascending key order:
    each node is filled as far as the block allows and written exactly
    once, left to right, holding one node per level in memory.  The
    result is an ordinary tree (searchable and updatable) no taller than
    one built by {!insert}s. *)

type loader

val bulk_loader :
  arena:Frame_arena.t ->
  ?frames:int ->
  cmp:(string -> string -> int) ->
  Device.t ->
  loader
(** Start a tree on an empty device region, as {!create} does. *)

val bulk_add : loader -> key:string -> value:string -> unit
(** Append the next entry.  A key equal (under [cmp]) to the previous
    one replaces it, as {!insert} would.
    @raise Invalid_argument when the key sorts before the previous one
    or key + value exceed a quarter block; the loader is left as before
    the call. *)

val bulk_finish : loader -> t
(** Write the remaining nodes and the meta page and return the tree.  The
    loader must not be used afterwards. *)
