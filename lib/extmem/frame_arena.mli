(** The session-wide frame arena: one pool of internal-memory block
    frames behind every block-holding component.

    The external-memory model hands an algorithm [m] blocks of internal
    memory; TPIE makes that concrete with a single memory manager that
    every data structure draws from.  This module is that spine.  It
    wraps a {!Memory_budget} (the counting side) and adds the frames
    themselves: recycled zero-filled buffers and per-owner accounting.
    Memory is held as a {b lease}: a named reservation of [n] frames
    with elastic grow/shrink.  The arena owns no page layout and no
    cache: the components that hold frames (stack windows, stream
    buffers, run-formation arenas, merge fan-in, the output phase's run
    readers, {!Btree}'s buffer pool) each manage their own blocks on
    their lease.

    Every reservation is recorded under its owner's [who] label, so
    budget exhaustion names the holders and the per-owner held/peak
    counts can be exported to metrics.  An arena created without a
    budget performs no accounting (frames are still pooled) — for a
    side index outside any job's memory, and for tests.

    Thread-safety: the owner table and buffer pool are protected by an
    internal mutex, so every operation is safe from any domain. *)

type t

val create : ?budget:Memory_budget.t -> unit -> t
(** An arena drawing from [budget] (when given). *)

val budget : t -> Memory_budget.t option

val take : t -> int -> bytes
(** [take t size] is a zero-filled buffer of [size] bytes, recycled from
    the pool when possible.  Buffer pooling is not accounting: callers
    hold a lease covering the blocks they keep. *)

val give : t -> bytes -> unit
(** Return a buffer to the pool.  The caller must drop its reference. *)

(** {1 Leases} *)

type lease

val lease : t -> who:string -> int -> lease
(** Reserve [n] frames under [who].  @raise Memory_budget.Exhausted when
    the arena's budget cannot cover them. *)

val lease_blocks : lease -> int
(** Frames currently held (0 after {!close_lease}). *)

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

(** {1 Per-owner accounting} *)

type owner_stats = {
  held : int;  (** frames reserved right now *)
  peak : int;  (** high-water mark of [held] *)
}

val owners : t -> (string * owner_stats) list
(** Every owner the arena has ever seen, sorted by name; owners whose
    leases are all closed stay listed (with [held = 0]) so end-of-run
    metrics are complete. *)

val totals : t -> owner_stats
(** Sum over {!owners}. *)
