(** Sequential reader over an extent of a device.

    Holds exactly one internal-memory block as its buffer; a block read is
    issued each time the stream crosses a block boundary, so scanning [n]
    bytes costs [ceil(n / block_size)] I/Os.  {!seek} supports the output
    phase of NEXSORT, which resumes a spilled run reader (one the budget
    could not keep resident) just after the location where a run pointer
    was found: seeking to a byte offset costs at most one block read (for
    the block containing the offset).  A reader made with {!of_run}
    frees each block once it has read past it. *)

type t

val of_extent : ?buffer:bytes -> Device.t -> Extent.t -> t
(** Read the given extent from its start.  [buffer] supplies the block
    buffer (typically a [Frame_arena] frame, so the reader's memory is
    accounted to its owner); it must be exactly one block long.
    @raise Invalid_argument on a wrong-sized buffer. *)

type tail = int * (bytes -> unit)
(** A run's {e tail}: its bytes past its last full block, kept in memory
    instead of on the device ({!Block_writer.close_split}) and read after
    the extent's blocks at no I/O.  [(n, fill)]: [n] bytes that [fill]
    writes into the reader's buffer, at the offsets they have in the
    tail, once, when the reader's position reaches them. *)

val tail_length : tail -> int

val of_run : ?buffer:bytes -> ?tail:tail -> Device.t -> Extent.t -> t
(** A consuming {!of_extent}, for data read exactly once (a sorted run):
    the reader {!Device.discard}s each block as its position leaves it —
    at the block's end, and the last block at the end of the extent — so
    a block is live only until it is read.  Seeking back into a block
    already left, or reading the extent a second time, finds it
    discarded.  The extent must own its blocks: no other data may share
    one.  [tail] (none by default) follows the extent's blocks.
    @raise Invalid_argument on a tail of a block or more, or one after
    an extent that ends mid-block. *)

val tail_loaded : t -> bool
(** Whether the reader's buffer holds its (non-empty) tail: the
    position has reached it. *)

val of_device : ?buffer:bytes -> Device.t -> t
(** Read a whole device: the extent covering [byte_length] bytes from
    block 0. *)

val position : t -> int
(** Current byte offset within the stream (the extent, then its tail). *)

val length : t -> int
(** Total byte length of the stream: the extent's and its tail's. *)

val at_end : t -> bool

val block_size : t -> int

val read_span : t -> bytes -> int -> int -> int
(** [read_span r buf off len] reads up to [len] bytes, stopping at the
    end of the block holding the current position, and returns how many
    it read (0 only at end of stream or when [len] is 0).  A span never
    crosses a block boundary, so it costs at most one block read, and a
    scanner that refills a block-sized window with spans reads exactly
    the blocks a byte-at-a-time scan would, at the same points. *)

val read_bytes : t -> bytes -> int -> int -> int
(** [read_bytes r buf off len] reads up to [len] bytes; returns the number
    actually read (0 only at end of stream). *)

val read_record : t -> string option
(** Read one varint-length-framed record written by
    {!Block_writer.write_record}.  [None] at end of stream.
    @raise Codec.Corrupt on a truncated record. *)

val seek : t -> int -> unit
(** [seek r off] repositions to byte [off] of the stream.  Costs one block
    read unless [off] lands in the currently buffered block or the
    tail. *)
