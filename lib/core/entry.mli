(** Data-stack and sorted-run entries.

    NEXSORT's on-disk representation of "a unit of XML data" (Figure 4).
    Entries appear in three places with one encoding: on the external data
    stack during the sorting phase, inside sorted runs, and as the payload
    of key-path records during external subtree sorts.

    Every entry carries its absolute document level (root element =
    level 1), which lets any consumer rebuild the tree shape without
    relying on end-tag entries — the basis of §3.2's end-tag elimination.
    [Start] entries carry the element's key when the ordering is
    scan-evaluable; otherwise the key travels on the matching [End] entry
    (evaluated by the streaming {!Ordering.Evaluator} during the scan,
    §3.2's path-stack augmentation).  [pos] fields are document positions
    used as the uniqueness tiebreak.

    The encoding implements the compaction techniques of §3.2: with
    {!Config.Dict} and {!Config.Packed}, tag and attribute names are
    dictionary-coded integers; with {!Config.Packed} the sorting phase
    additionally never materialises [End] entries (output reconstructs end
    tags from level transitions). *)

type t =
  | Start of {
      level : int;
      pos : int;
      name : string;
      attrs : Xmlio.Event.attr list;
      key : Key.t option;  (** present iff scan-evaluable ordering *)
    }
  | End of {
      level : int;  (** level of the element being closed *)
      pos : int;    (** document position of that element *)
      key : Key.t option;  (** present iff subtree-derived ordering *)
    }
  | Text of {
      level : int;  (** level of the text node itself (parent level + 1) *)
      pos : int;
      content : string;
    }
  | Run_ptr of {
      level : int;  (** level of the collapsed subtree's root element *)
      pos : int;    (** document position of that element *)
      key : Key.t;  (** its sort key, for ordering among its siblings *)
      run : Extmem.Run_store.id;
      bytes : int;  (** on-stack byte size the subtree had when collapsed *)
    }
      (** The encoded entry ends in one more field, the run's {e tail}:
          its bytes past its last full block
          ({!Extmem.Run_store.finish_pointed}), as the payload's last
          bytes with no length prefix, so an empty tail adds none.  It
          exists in encoded form only: {!encode} writes an empty one,
          {!encode_run_ptr_into} a given one, {!decode} skips it and
          {!run_of_ptr} locates it. *)

val level : t -> int

val encode : Config.encoding -> Xmlio.Dict.t -> t -> string
(** Serialize.  The dictionary is consulted/extended for [Dict]/[Packed];
    ignored for [Plain]. *)

val encode_to : Config.encoding -> Xmlio.Dict.t -> Extmem.Codec.Enc.t -> t -> string
(** {!encode} through a reusable scratch encoder (cleared first); the
    returned string is freshly allocated, the scratch only amortizes the
    intermediate buffer.  The [_into] forms below leave the bytes in the
    scratch encoder (cleared first) instead of copying them out: they
    feed {!Extmem.Ext_stack.push_bytes} straight from
    {!Extmem.Codec.Enc.buffer}.  Each [_to] form is its [_into] form
    followed by {!Extmem.Codec.Enc.contents}. *)

val encode_start_of_packed :
  Config.encoding ->
  Xmlio.Dict.t ->
  Extmem.Codec.Enc.t ->
  level:int ->
  pos:int ->
  key:Key.t option ->
  Xmlio.Event.packed ->
  string
(** Encode a [Start] entry directly from a parser-packed event: no [t]
    record or attr assoc list is built, and name ids already resolved by
    the parser (against the same dictionary) are written as-is.  Produces
    exactly the bytes {!encode} would for the equivalent [Start]. *)

val encode_start_of_packed_into :
  Config.encoding ->
  Xmlio.Dict.t ->
  Extmem.Codec.Enc.t ->
  level:int ->
  pos:int ->
  key:Key.t option ->
  Xmlio.Event.packed ->
  unit

val encode_text_to : Extmem.Codec.Enc.t -> level:int -> pos:int -> string -> string
(** Encode a [Text] entry without building the [t] record. *)

val encode_text_into : Extmem.Codec.Enc.t -> level:int -> pos:int -> string -> unit

val encode_end_to : Extmem.Codec.Enc.t -> level:int -> pos:int -> key:Key.t option -> string
(** Encode an [End] entry without building the [t] record. *)

val encode_end_into : Extmem.Codec.Enc.t -> level:int -> pos:int -> key:Key.t option -> unit

val encode_run_ptr_into :
  Extmem.Codec.Enc.t ->
  level:int ->
  pos:int ->
  key:Key.t ->
  run:Extmem.Run_store.id ->
  bytes:int ->
  tail:string ->
  tail_len:int ->
  unit
(** Encode a [Run_ptr] entry carrying the run's tail, the first
    [tail_len] bytes of [tail], into the scratch encoder (cleared
    first).  A run pointer names no dictionary entry. *)

val decode : Config.encoding -> Xmlio.Dict.t -> string -> t
(** Inverse of {!encode} for the same encoding and dictionary.
    @raise Extmem.Codec.Corrupt on malformed bytes. *)

val is_run_ptr : string -> bool
(** Whether an encoded entry is a [Run_ptr], from its tag byte alone. *)

val run_of_ptr : string -> Extmem.Run_store.id * int
(** The run an encoded [Run_ptr] names and the offset of its tail, the
    trailing field: the run's tail is the payload's bytes from there to
    its end, the [tail] argument of {!Extmem.Run_store.open_run}.  Skips
    the other fields.
    @raise Invalid_argument on any other entry. *)

(** {1 Output: entries in document order back into XML}

    Entries arrive in final document order with run pointers already
    expanded.  End tags come from level transitions (§3.2): an entry at
    level [l] first closes every open element at level [l] or deeper,
    and [finish] closes the rest, so [End] entries are optional — the
    same code serves [Packed] runs, which have none. *)

(** The output phase's serializer: writes each payload's start tag,
    attributes, text and derived end tags straight from its bytes
    through the {!Xmlio.Writer} slice primitives.  Per entry it
    allocates a cursor and nothing else — no {!t}, {!Xmlio.Event.t} or
    attribute list ([Plain] names excepted, which are copied out). *)
module Serializer : sig
  type t

  val create : Config.encoding -> Xmlio.Dict.t -> Xmlio.Writer.t -> t

  val entry : t -> string -> unit
  (** @raise Invalid_argument on a [Run_ptr].
      @raise Extmem.Codec.Corrupt on malformed bytes. *)

  val finish : t -> unit
  (** Close every element still open. *)
end

(** The same walk as {!Serializer}, as {!Xmlio.Event.t}s through
    {!decode}: the adapter for consumers of a sorted event stream
    (merges and ingest, via [Sorter.open_stream]). *)
module Events : sig
  type t

  val create : Config.encoding -> Xmlio.Dict.t -> t

  val entry : t -> string -> (Xmlio.Event.t -> unit) -> unit
  (** Emit the events one entry stands for, end tags first.
      @raise Invalid_argument on a [Run_ptr]. *)

  val finish : t -> (Xmlio.Event.t -> unit) -> unit
end

(** In-place entry views.

    A [View.t] wraps an encoded entry and reads fields straight off the
    bytes: the header (tag, level, pos) is decoded once at construction;
    keys are decoded on demand; names, attributes and text are never
    materialized.  Sorting and merging operate entirely on views — the
    original payload travels through {!Forest} and {!Subtree_sort} and is
    re-emitted verbatim, so sorted output is byte-identical to the input
    entries without a decode/re-encode round trip (and without consulting
    the dictionary at all). *)

module View : sig
  type kind =
    | Vstart
    | Vend
    | Vtext
    | Vrun_ptr

  type t

  val of_payload : Config.encoding -> string -> t
  (** Wrap one encoded entry.  @raise Extmem.Codec.Corrupt on a bad tag. *)

  val payload : t -> string
  (** The encoded bytes, byte-identical to what was passed in. *)

  val kind : t -> kind
  val level : t -> int
  val pos : t -> int

  val sibling_key : t -> Key.t
  (** The key this entry sorts by among its siblings, decoded on demand:
      the element key for [Vstart]/[Vrun_ptr] ([Null] when it is on the
      [Vend] entry instead), [Null] for [Vtext]. *)

  val start_key : t -> Key.t option
  (** The key option of a [Vstart] view. *)

  val end_key : t -> Key.t option
  (** The key option of a [Vend] view. *)

end

val pp : Format.formatter -> t -> unit
