(** Sequential reader over an extent of a device.

    Holds exactly one internal-memory block as its buffer; a block read is
    issued each time the stream crosses a block boundary, so scanning [n]
    bytes costs [ceil(n / block_size)] I/Os.  {!seek} supports the output
    phase of NEXSORT, which resumes reading a sorted run just after the
    location where a run pointer was found: seeking to a byte offset costs
    at most one block read (for the block containing the offset). *)

type t

val of_extent : ?buffer:bytes -> Device.t -> Extent.t -> t
(** Read the given extent from its start.  [buffer] supplies the block
    buffer (typically a [Frame_arena] frame, so the reader's memory is
    accounted to its owner); it must be exactly one block long.
    @raise Invalid_argument on a wrong-sized buffer. *)

val of_device : ?buffer:bytes -> Device.t -> t
(** Read a whole device: the extent covering [byte_length] bytes from
    block 0. *)

val position : t -> int
(** Current byte offset within the extent. *)

val length : t -> int
(** Total byte length of the extent. *)

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
(** [seek r off] repositions to byte [off] of the extent.  Costs one block
    read unless [off] lands in the currently buffered block. *)
