(** External-memory stacks (§3.1 of the paper).

    NEXSORT uses three stacks that can grow beyond internal memory: the
    data stack (elements being sorted), the path stack (start locations of
    the current element's ancestors) and the output-location stack (the
    manual recursion stack of the output phase).  This module implements
    all three: a stack of variable-length byte entries stored on its own
    device, with a bounded window of resident blocks and the paper's
    {e no-prefetch} paging policy — a block that has been evicted is read
    back only when something on it must be popped.

    The resident window always covers the top of the stack.  Pushes that
    overflow the window evict the lowest resident block (written back only
    if dirty); pops that reach below the window page blocks back in, while
    blocks that fall entirely above the shrunk top are discarded for free.
    With [resident_blocks = w], at most [w] blocks of internal memory are
    used, matching the paper's assumption of two blocks for the path stack
    and one each for the data and output-location stacks.

    Entries are framed as [varint length ++ payload ++ fixed u32 length],
    so they can be popped from the top {e and} scanned forward from any
    recorded position — NEXSORT pops a whole subtree by remembering the
    stack length before the subtree's first entry and scanning forward
    from there.

    Positions reported by {!length} are byte offsets and double as the
    "locations" of the paper's pseudo-code: the difference of two
    positions is the exact on-stack byte size of the entries between
    them. *)

type t

val create :
  ?name:string -> ?resident_blocks:int -> ?arena:Frame_arena.t -> ?elastic:bool -> Device.t -> t
(** [create dev] is an empty stack storing its spilled blocks on [dev]
    (which it should own exclusively).  The window is one lease of
    frames from [arena] (a private unbudgeted arena when omitted) under
    ["<name> window"], first granted [resident_blocks] (default 1, must
    be >= 1; see {!resize}).  With [~elastic:true] on a budgeted arena,
    the window grows its lease over idle budget blocks instead of
    evicting, and pages only when the budget has none to spare; the
    extra blocks go back at the next {!resize}. *)

val length : t -> int
(** Current top-of-stack byte offset. *)

val is_empty : t -> bool

val push : t -> string -> unit
(** Push one entry (its payload bytes). *)

val push_bytes : t -> bytes -> int -> int -> unit
(** [push_bytes st buf off len] pushes [len] bytes of [buf] from [off] as
    one entry — straight out of an encoder's buffer
    ({!Codec.Enc.buffer}), with no intermediate string.  {!push} is
    [push_bytes] over a whole string. *)

val pop : t -> string
(** Pop the top entry.  @raise Invalid_argument on an empty stack. *)

val top : t -> string
(** The top entry without removing it.  Pages in exactly the blocks a
    [pop] would.  @raise Invalid_argument on an empty stack. *)

val top_cursor : t -> Codec.cursor
(** {!top} without the copy: a cursor at the top entry's first payload
    byte, over the resident block that holds it (or over a stack-owned
    copy when the entry spans blocks).  The bytes past the payload are
    not the entry's, so a reader must know where its fields end.  Valid
    until the next operation on the stack; pages in and evicts exactly
    as {!top} does. *)

val pop_cursor : t -> Codec.cursor
(** {!pop} without the copy, as {!top_cursor}: the cursor reads the
    popped payload in place.  Valid until the next operation on the
    stack; pages in and evicts exactly as {!pop} does. *)

val framed_size : string -> int
(** [framed_size payload] is the number of stack bytes an entry with that
    payload occupies, framing included. *)

val truncate_to : t -> int -> unit
(** [truncate_to st pos] discards everything at or above byte position
    [pos], which must be an entry boundary previously observed via
    {!length}.  Costs no I/O. *)

val iter_entries_from : t -> pos:int -> (string -> unit) -> unit
(** [iter_entries_from st ~pos f] scans entries forward from byte position
    [pos] (an entry boundary) to the top, calling [f] on each payload in
    bottom-to-top order.  Blocks below the resident window are read
    through a scratch buffer (each counted as one read) without disturbing
    the window; resident blocks cost nothing. *)

val cursor_from : t -> pos:int -> unit -> string option
(** Pull-based variant of {!iter_entries_from}: each call returns the next
    entry payload, [None] at the top.  The cursor reads the stack as it
    was when created; pushing, popping or truncating while a cursor is
    live is a programming error. *)

val resident_blocks : t -> int
(** Number of blocks currently held in memory (<= the window's lease,
    except transiently while popping an entry larger than the window). *)

val resize : t -> int -> unit
(** [resize st n] grants the window [n] blocks: evict resident blocks
    from the bottom (writing the dirty ones back) until at most [n]
    remain, then set the lease to exactly [n].  Growing costs no I/O:
    blocks page back in by the no-prefetch rule.  On a window of 0
    blocks, pushing, popping or reading the top is a programming error
    (asserted); {!length}, {!truncate_to} and the forward scans work.
    @raise Memory_budget.Exhausted when the budget cannot cover [n]. *)

val close : t -> unit
(** Release the window: every resident frame returns to the arena pool
    and the lease goes back to the budget.  Nothing is flushed — close
    ends a session, it does not persist the stack — so it costs no I/O.
    Idempotent; using the stack afterwards is a programming error. *)

val device : t -> Device.t
(** The backing device (for layer inspection and I/O totals). *)

val io_stats : t -> Io_stats.t
(** The underlying device's counters: every page-in is a read, every
    dirty eviction a write. *)

(** {2 Paging metrics}

    Plain counters over the stack's life, read by [Obs.Probe.ext_stack]. *)

val pushes : t -> int
(** Entries pushed. *)

val pops : t -> int
(** Entries popped (scans and {!truncate_to} are not pops). *)

val page_ins : t -> int
(** Blocks read back from the device — into the resident window or the
    scan scratch buffer. *)

val writebacks : t -> int
(** Blocks written to the device (dirty evictions and spills). *)

val high_water : t -> int
(** Largest byte length the stack ever reached. *)
