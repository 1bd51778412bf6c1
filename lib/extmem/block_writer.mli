(** Sequential, append-only writer over a device.

    Holds exactly one internal-memory block as its buffer; a block write is
    issued each time the buffer fills (so writing [n] bytes costs
    [ceil(n / block_size)] I/Os).  Blocks are allocated from the device as
    needed, so multiple writers on the same device must not be interleaved
    unless each was given a pre-allocated region.

    Beyond raw bytes, the writer offers framed records: {!write_record}
    emits a varint length followed by the payload, which {!Block_reader}
    can consume with [read_record]. *)

type t

val create : ?buffer:bytes -> Device.t -> t
(** Start a stream at the device's current allocation frontier.
    [buffer] supplies the block buffer (typically a [Frame_arena] frame,
    so the writer's memory is accounted to its owner); it must be
    exactly one block long.
    @raise Invalid_argument on a wrong-sized buffer. *)

val write_bytes : t -> bytes -> int -> int -> unit
(** [write_bytes w buf off len] appends [len] bytes of [buf] from [off]. *)

val write_substring : t -> string -> int -> int -> unit
(** [write_substring w s off len] appends [len] bytes of [s] from [off]. *)

val write_string : t -> string -> unit

val write_char : t -> char -> unit

val write_record : t -> string -> unit
(** Append a varint-length-framed record. *)

val position : t -> int
(** Bytes appended so far (including any still in the buffer): the
    stream offset of the next byte. *)

val close : t -> Extent.t
(** Flush the final partial block and return the extent covering the whole
    stream.  The writer must not be used afterwards. *)

val close_split : t -> Extent.t * int
(** Close without writing the final partial block: the extent covers the
    full blocks only ([bytes] is their size), and the bytes past them,
    the tail, stay at the front of the writer's buffer: their count
    comes back (fewer than a block, 0 when the stream ends on a
    boundary).  The writer must not be used afterwards. *)
