(** The session-wide frame arena: one pool of internal-memory block
    frames behind every block-holding component.

    The external-memory model hands an algorithm [m] blocks of internal
    memory; TPIE makes that concrete with a single memory manager that
    every data structure draws from.  This module is that spine.  It
    wraps a {!Memory_budget} (the counting side) and adds the frames
    themselves: recycled zero-filled buffers, per-owner accounting, and
    two ways to hold memory —

    {ul
    {- a {b lease}: a named reservation of [n] frames with elastic
       grow/shrink, used by components that manage their own block
       layout (stack windows, stream buffers, run-formation arenas,
       merge fan-in);}
    {- a {b cache}: a mapped set of frames over one device with a
       replacement policy, dirty tracking and write-back on eviction.
       Its one user is {!Btree}'s buffer pool: the sorter's stacks page
       by the paper's fixed no-prefetch rule on leases and attach no
       cache.}}

    Every reservation is recorded under its owner's [who] label, so
    budget exhaustion names the holders and per-owner hit/miss/eviction
    counters can be exported to metrics.  An arena created without a
    budget performs no accounting (frames are still pooled) — handy for
    a B-tree's private pool and for tests.

    Thread-safety: the shared owner table and buffer pool are protected
    by an internal mutex, so {!reserve}/{!release}/{!take}/{!give} (and
    the lease operations built on them) are safe from any domain.  A
    {b cache} is single-domain: its frame map and counters are
    deliberately unlocked for the page-access hot path.  Parallel phases
    should {!carve} a per-domain sub-arena instead of sharing one. *)

type t

(** {1 Replacement policies} *)

type policy =
  | Lru    (** evict the least-recently-touched frame *)
  | Clock  (** second-chance: skip referenced frames once *)
  | Mru    (** evict the most-recently-touched frame *)
  | Stack  (** the paper's no-prefetch stack rule: evict the lowest
               block index, keeping the top of a stack resident *)

val all_policies : policy list

val policy_to_string : policy -> string

(** {1 Arena} *)

val create : ?budget:Memory_budget.t -> unit -> t
(** An arena drawing from [budget] (when given). *)

val budget : t -> Memory_budget.t option

val take : t -> int -> bytes
(** [take t size] is a zero-filled buffer of [size] bytes, recycled from
    the pool when possible.  Buffer pooling is not accounting: callers
    hold a lease (or cache) covering the blocks they keep. *)

val give : t -> bytes -> unit
(** Return a buffer to the pool.  The caller must drop its reference. *)

val carve : t -> who:string -> blocks:int -> t
(** [carve t ~who ~blocks] reserves a [blocks]-frame slab from the
    arena's budget under [who] and wraps it in a fresh private arena.
    Intended for worker domains: every lease,
    cache and buffer the worker takes then lives entirely in its own
    arena, with no shared mutable frame state on the hot path, while the
    parent's ledger pins the slab under the carver's name.
    @raise Invalid_argument on an unbudgeted arena.
    @raise Memory_budget.Exhausted when the slab does not fit. *)

val close : t -> unit
(** Return a carved sub-arena's slab to the parent budget.  Every lease
    and cache in the sub-arena must already be closed — a frame still
    reserved is a leak, reported with its owner.
    @raise Invalid_argument on a non-carved arena or a non-empty one. *)

(** {1 Leases} *)

type lease

val lease : t -> who:string -> int -> lease
(** Reserve [n] frames under [who].  @raise Memory_budget.Exhausted when
    the arena's budget cannot cover them. *)

val lease_blocks : lease -> int
(** Frames currently held (0 after {!close_lease}). *)

val lease_who : lease -> string

val grow : lease -> int -> unit
(** Reserve [n] more frames.  @raise Memory_budget.Exhausted on a full
    budget. *)

val try_grow : lease -> int -> bool
(** Like {!grow} but returns [false] instead of raising when the budget
    lacks [n] free blocks (always succeeds on an unbudgeted arena). *)

val shrink : lease -> int -> unit
(** Give back [n] frames.  @raise Invalid_argument below zero. *)

val close_lease : lease -> unit
(** Give back everything still held.  Idempotent. *)

val with_lease : t -> who:string -> int -> (lease -> 'a) -> 'a
(** Lease around a scope; always closed, also on exceptions. *)

(** {1 Caches}

    A set of frames mapped onto one device's blocks, accessed a whole
    page at a time.  A miss faults the block in, evicting the victim the
    replacement policy picks; a free frame is always taken first.  All
    policies write a frame back only when it is dirty. *)

type cache

val attach : t -> ?who:string -> ?policy:policy -> frames:int -> Device.t -> cache
(** [attach t ~frames dev] reserves [frames] (>= 1) frames under [who]
    (default ["pager"]) and maps them onto [dev].  [policy] defaults to
    {!Lru}. *)

val detach : cache -> unit
(** Flush dirty frames, return the buffers to the pool and release the
    reservation.  Idempotent; using the cache afterwards is a
    programming error.  The owner's cumulative counters survive in
    {!owners}. *)

val read_page : cache -> int -> string
(** Whole-block read.  @raise Invalid_argument on an unallocated
    block. *)

val write_page : cache -> int -> string -> unit
(** Whole-block write, zero-padded to the block size.  Extends the
    device as needed.  @raise Invalid_argument when the page exceeds the
    block size. *)

val flush : cache -> unit
(** Write back every dirty resident frame. *)

val hits : cache -> int

val misses : cache -> int

val evictions : cache -> int

val writebacks : cache -> int

(** {1 Per-owner accounting} *)

type owner_stats = {
  held : int;        (** frames reserved right now *)
  peak : int;        (** high-water mark of [held] *)
  hits : int;        (** cache hits (0 for pure leases) *)
  misses : int;
  evictions : int;
  writebacks : int;
}

val owners : t -> (string * owner_stats) list
(** Every owner the arena has ever seen, sorted by name.  Cumulative
    cache counters survive {!detach}/{!close_lease} so end-of-run
    metrics are complete. *)

val totals : t -> owner_stats
(** Sum over {!owners}. *)
