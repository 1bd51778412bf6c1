(** Low-level binary codecs shared by the substrate and the sorters.

    Records on the external stacks, in sorted runs and in merge-sort
    temporaries are framed with these primitives: LEB128-style varints for
    small integers and length-prefixed byte strings.  Two encode paths share
    the same wire format: the historical [Buffer.t] appenders, and the
    allocation-free {!Enc} growable-bytes encoder used on hot paths.
    Decoding reads from a [string] through a mutable cursor, either
    materializing values or — via the [slice]/[skip] variants — returning
    offsets into the frame without copying. *)

(** {1 Encoding (Buffer-based)} *)

val put_varint : Buffer.t -> int -> unit
(** Append a non-negative integer as a LEB128 varint (7 bits per byte,
    high bit = continuation).  @raise Invalid_argument on negatives. *)

val put_zigzag : Buffer.t -> int -> unit
(** Append a possibly-negative integer using zigzag + varint coding.
    Covers the full [int] range including [min_int]/[max_int]. *)

val put_string : Buffer.t -> string -> unit
(** Append a varint length followed by the raw bytes. *)

val put_u8 : Buffer.t -> int -> unit
(** Append one byte (the low 8 bits of the argument). *)

val put_u32 : Buffer.t -> int -> unit
(** Append a fixed-width 32-bit little-endian unsigned integer. *)

val put_f64 : Buffer.t -> float -> unit
(** Append a fixed-width IEEE-754 double, little-endian. *)

(** {1 Encoding (preallocated bytes)} *)

(** A reusable growable byte encoder for inner loops: one backing [Bytes.t]
    that doubles on demand and is reused across records via {!Enc.clear},
    with bounds checked once per append and [unsafe_set] stores.  Produces
    byte-for-byte the same wire format as the [Buffer.t] appenders. *)
module Enc : sig
  type t

  val create : ?capacity:int -> unit -> t
  val clear : t -> unit
  (** Reset length to zero; the backing buffer is retained. *)

  val length : t -> int
  val add_varint : t -> int -> unit
  val add_zigzag : t -> int -> unit
  val add_string : t -> string -> unit
  val add_substring : t -> string -> int -> int -> unit
  (** [add_substring t s off len]: length-prefix then [len] bytes of [s]
      starting at [off], without an intermediate copy. *)

  val add_raw : t -> string -> unit
  (** Append raw bytes with no length prefix. *)

  val add_raw_substring : t -> string -> int -> int -> unit
  (** [add_raw_substring t s off len]: {!add_raw} of [len] bytes of [s]
      starting at [off], without an intermediate copy. *)

  val add_u8 : t -> int -> unit
  val add_u32 : t -> int -> unit
  val add_f64 : t -> float -> unit

  val contents : t -> string
  (** Copy out the encoded bytes (the only allocation on the encode path). *)

  val buffer : t -> bytes
  (** The backing buffer itself, not a copy: its first {!length} bytes
      are the encoded record.  For consumers that copy the record
      straight out (an {!Ext_stack} push); valid until the next append,
      which may replace the buffer. *)

end

(** {1 Decoding} *)

type cursor = {
  buf : string;
  mutable pos : int;
}
(** A read cursor over an immutable string. *)

exception Corrupt of string
(** Raised by all [get_*] functions on truncated or malformed input. *)

val cursor : ?pos:int -> string -> cursor

val at_end : cursor -> bool
(** True when the cursor has consumed the whole string. *)

val need : cursor -> int -> unit
(** [need c n] checks that [n] bytes remain.  @raise Corrupt otherwise. *)

val get_varint : cursor -> int
val get_zigzag : cursor -> int
val get_string : cursor -> string
val get_u8 : cursor -> int
val get_u32 : cursor -> int
val get_f64 : cursor -> float

val get_string_slice : cursor -> int * int
(** Like {!get_string} but returns [(offset, length)] into [cursor.buf]
    instead of copying the bytes out. *)

val skip_string : cursor -> unit
(** Advance past a length-prefixed string without materializing it. *)

val skip_varint : cursor -> unit
(** Advance past one varint without decoding its value. *)

val compare_sub : string -> int -> int -> string -> int -> int -> int
(** [compare_sub a ao al b bo bl] compares the slices [a.[ao..ao+al)] and
    [b.[bo..bo+bl)] in [String.compare] order, without allocating. *)

(** {1 Fixed-width access into [bytes]} *)

val set_u32_at : bytes -> int -> int -> unit
(** [set_u32_at b off v] stores [v] as 32-bit LE at offset [off]. *)

val get_u32_at : string -> int -> int
(** [get_u32_at s off] reads a 32-bit LE unsigned integer at [off]. *)
