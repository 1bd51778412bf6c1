(** External-memory B+-trees.

    The "additional index" of the paper's §1: the naive nested-loop merge
    scans half of a subtree on average to find a matching element —
    {e "unless there is an additional index"}.  This is that index: a
    disk-resident B+-tree over a {!Device.t}, accessed page by page
    through a {!Frame_arena.cache} — the B-tree's own buffer pool, the one
    replacement-policy cache in the system — so hot paths stay cached
    within a bounded frame budget.
    The indexed-merge comparator in [bench/main.exe motivation] is built
    on it.

    Keys and values are byte strings under a caller-supplied total order
    on keys.  Structure: a meta page (root pointer, entry count), internal
    pages of separator keys and child pointers, and leaf pages chained
    left-to-right for range scans.  Nodes split when their serialized form
    outgrows the block.  Deletion removes entries from leaves without
    rebalancing (pages may become sparse but never incorrect) — the usage
    here is build-once, query-many.

    Keys may appear at most once ({!insert} replaces).  A single key/value
    pair must fit a quarter block, guaranteeing internal fan-out of at
    least two. *)

type t

val create :
  ?policy:Frame_arena.policy ->
  ?frames:int ->
  cmp:(string -> string -> int) ->
  Device.t ->
  t
(** Initialise a fresh tree on an empty device region (allocates the meta
    page and an empty root leaf).  [frames] (default 8) is the size of the
    buffer pool, a private unbudgeted arena's cache owned by ["btree"];
    [policy] (default {!Frame_arena.Lru}) is its replacement policy. *)

val reopen :
  ?policy:Frame_arena.policy ->
  ?frames:int ->
  cmp:(string -> string -> int) ->
  Device.t ->
  t
(** Re-attach to a device previously written by {!create} + {!flush} (the
    comparator must be the one the tree was built with). *)

val length : t -> int
(** Number of entries. *)

val insert : t -> key:string -> value:string -> unit
(** Insert or replace.  @raise Invalid_argument when key + value exceed a
    quarter of the block size. *)

val find : t -> string -> string option

val mem : t -> string -> bool

val delete : t -> string -> bool
(** Remove a key; [true] if it was present. *)

val iter_from : t -> string -> (string -> string -> bool) -> unit
(** [iter_from t k f] visits entries with key >= [k] in ascending order,
    until [f key value] returns [false] or the entries run out. *)

val iter : t -> (string -> string -> unit) -> unit
(** All entries in ascending key order. *)

val flush : t -> unit
(** Write all dirty pages back to the device. *)

val cache : t -> Frame_arena.cache
(** The buffer pool (for {!Frame_arena.hits} and the other counters). *)

val height : t -> int
(** Levels from root to leaves (1 = root is a leaf). *)

(** {1 Bulk loading}

    Bottom-up construction from entries already in ascending key order:
    each node is filled as far as the block allows and written exactly
    once, left to right, holding one node per level in memory.  The
    result is an ordinary tree (searchable, updatable, {!flush} +
    {!reopen}-able) no taller than one built by {!insert}s. *)

type loader

val bulk_loader :
  ?policy:Frame_arena.policy ->
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
