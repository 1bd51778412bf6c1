(** Streaming XML serializer.

    Consumes {!Event.t}s (or the slice primitives behind them) and
    emits well-formed XML text to a pluggable sink — a [Buffer.t] or a
    {!Extmem.Block_writer.t}, so writing the
    output document costs exactly [ceil(n/B)] block writes.  Round-trips
    with {!Parser}: [parse (write events) = events] for any balanced
    event sequence. *)

type t

val to_buffer : ?decl:bool -> ?indent:bool -> Buffer.t -> t
(** Serialize into a buffer.  [decl] (default false) emits an XML
    declaration first; [indent] (default false) pretty-prints with
    2-space indentation (only safe for documents without mixed
    content). *)

val to_block_writer : ?decl:bool -> ?indent:bool -> Extmem.Block_writer.t -> t

val to_fn : ?decl:bool -> ?indent:bool -> (string -> unit) -> t

(** {2 Slice primitives}

    The serializer's own vocabulary, which {!event} is a thin wrapper
    over: names are whole strings, attribute values and text are
    [(string, off, len)] slices escaped in place — the runs between the
    bytes that need a reference are copied straight to the sink, so an
    entry decoder can write a payload's values without cutting them out
    first. *)

val start_element : t -> string -> unit
(** Open a start tag, [<name]; attributes may follow until the next
    call of any other primitive closes it. *)

val attribute : t -> string -> string -> int -> int -> unit
(** [attribute w name s off len] writes [ name="..."] with the value
    [s.[off..off+len)] escaped.
    @raise Invalid_argument unless a start tag is open. *)

val text : t -> string -> int -> int -> unit
(** [text w s off len] writes [s.[off..off+len)] as escaped character
    data.  @raise Invalid_argument on non-whitespace text outside the
    root element (whitespace there is dropped). *)

val end_element : t -> string -> unit
(** Close the innermost element: [/>] when it got no content, else
    [</name>].  @raise Invalid_argument with no element open. *)

val event : t -> Event.t -> unit
(** Emit one event through the primitives above.  @raise
    Invalid_argument on events that would produce malformed XML
    (unbalanced end tag, text outside the root). *)

val events : t -> Event.t list -> unit

val close : t -> unit
(** Check balance.  @raise Invalid_argument if elements remain open. *)

val events_to_string : ?decl:bool -> ?indent:bool -> Event.t list -> string
(** One-shot convenience. *)
