(** Internal-memory accounting.

    The external-memory model gives an algorithm [M] blocks of internal
    memory; TPIE enforces this with an application memory limit.  Here
    every component that holds blocks in memory (stack windows, stream
    buffers, sort arenas, merge fan-in buffers) reserves them from a
    shared budget, so exceeding [M] is a programming error that surfaces
    immediately instead of silently inflating memory.

    The budget keeps a per-[who] ledger: reservations are recorded under
    the owner's name, and both exhaustion and release errors report who
    holds what, so a leak or double-release points at its owner instead
    of failing with a bare count.

    Every operation is thread-safe (one internal mutex per budget), so a
    budget can be shared across domains.  The multi-tenant engine shares
    one this way, and coarser than per-block locking: it {!carve}s a
    fixed slab into a per-job {e sub-budget} at admission, the job —
    running on its own domain — reserves and releases against its
    private sub-budget without touching the engine's, and the slab is
    {!uncarve}d when the job is released.  The parent's ledger records
    each slab under the carver's name, so exhaustion messages stay exact
    across domains. *)

type t

exception Exhausted of string
(** Raised when a reservation would exceed the budget.  The message names
    the component that asked and lists the current holders. *)

val create : blocks:int -> block_size:int -> t
(** A budget of [blocks] internal-memory blocks of [block_size] bytes. *)

val block_size : t -> int

val total_blocks : t -> int

val used_blocks : t -> int

val peak_blocks : t -> int
(** The most blocks ever reserved at once. *)

val available_blocks : t -> int

val reserve : t -> who:string -> int -> unit
(** [reserve b ~who n] takes [n] blocks, recorded in [who]'s ledger.
    @raise Exhausted naming [who] when fewer than [n] blocks remain. *)

val release : t -> who:string -> int -> unit
(** [release b ~who n] gives back [n] of [who]'s blocks.
    @raise Invalid_argument naming [who] when releasing more than [who]
    holds — a double-release (or a release under the wrong name) is
    reported with the owner, not a bare count. *)

val held : t -> string -> int
(** Blocks currently held under a given owner name (0 if unknown). *)

val holders : t -> (string * int) list
(** Every owner currently holding blocks, with the count, sorted by
    name.  The sum of the counts is {!used_blocks}. *)

val with_reserved : t -> who:string -> int -> (unit -> 'a) -> 'a
(** Reserve around a scope; always released, also on exceptions. *)

val carve : t -> ?block_size:int -> who:string -> blocks:int -> unit -> t
(** [carve b ~who ~blocks ()] reserves a [blocks]-block slab under [who]
    and returns it as a fresh sub-budget with its own lock and ledger.
    The slab counts as used in [b] for as long as the sub-budget lives, so
    concurrent holders of the parent can never over-commit the pool.
    [block_size] gives the sub-budget its own granularity (a multi-tenant
    engine budget parcels blocks out to jobs with different [B]s); the
    parent is charged [blocks * block_size] bytes rounded {e up} to whole
    parent blocks, so a sub-budget can never out-commit its slab.
    @raise Exhausted when the parent cannot cover the slab. *)

val uncarve : ?force:bool -> t -> unit
(** Return a carved sub-budget's slab to its parent.  The sub-budget must
    be empty — a block still reserved in it is a leak, reported with its
    owner — and must not be used afterwards.  [~force:true] releases the
    slab even when blocks are still held, for teardown paths that count
    the leak themselves ({!used_blocks} before forcing) instead of
    masking the original failure with a raise.
    @raise Invalid_argument on a non-carved budget, or (unforced) on a
    non-empty one. *)
