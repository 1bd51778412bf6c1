(** Streaming XML pull parser.

    A hand-written, event-based parser in the spirit of SAX, which the
    paper uses to drive the sorting-phase scan (Figure 4, line 2).  It
    scans a window of input bytes in place — the whole string, or one
    block span of a {!Extmem.Block_reader.t} at a time, so parsing a
    disk-resident document costs exactly [ceil(n/B)] block reads — and
    produces {!Event.t}s on demand.  Text runs, attribute values and names
    are found by index loops over the window and copied out in one piece;
    line endings are normalized (CRLF and lone CR read as LF) on the fly.

    Supported syntax: elements with attributes (single- or double-quoted),
    character data with the predefined and numeric entity references,
    CDATA sections, comments, processing instructions, an XML declaration
    and a DOCTYPE with internal subset (both skipped).  Namespaces are not
    interpreted (colons are ordinary name characters), which matches the
    paper's data model.

    Well-formedness is enforced: mismatched or unclosed tags, text outside
    the root element, multiple roots and malformed markup all raise
    {!Error} with a line/column position. *)

type t

exception Error of { line : int; col : int; msg : string }

val of_string : ?dict:Dict.t -> ?keep_whitespace:bool -> string -> t
(** Parse from an in-memory string (no I/O counted).  When
    [keep_whitespace] is false (default), character data consisting only
    of whitespace is dropped — the usual treatment for data-centric XML,
    and what the paper's generators produce.  With [?dict], tag and
    attribute names are interned as they are read: events carry the
    canonical shared strings plus their dict ids, and known names are
    resolved straight out of the parser's scratch buffer without
    allocating (§3.2's name dictionary pushed down into the scan). *)

val of_reader : ?dict:Dict.t -> ?keep_whitespace:bool -> Extmem.Block_reader.t -> t
(** Parse from a device-backed stream; every block crossed is counted by
    the reader's device.  The parser scans a block-sized window that it
    refills with one {!Extmem.Block_reader.read_span} at a time, so the
    reader's position runs up to a block ahead of the parse (see
    {!offset}). *)

val of_fn : ?dict:Dict.t -> ?keep_whitespace:bool -> (unit -> char option) -> t
(** Parse from an arbitrary character source, one byte at a time. *)

val next : t -> Event.t option
(** The next event, or [None] once the root element has been closed and
    only trailing misc remains.  @raise Error on malformed input. *)

val next_packed : t -> Event.packed option
(** Like {!next}, but fills and returns the parser's reusable
    {!Event.packed} scratch instead of allocating an event: the returned
    record is valid only until the next call on the parser.  Attribute
    values and text are still fresh strings; names are shared.  May be
    freely interleaved with {!next}/{!peek}. *)

val peek : t -> Event.t option
(** The next event without consuming it. *)

val depth : t -> int
(** Number of currently open elements. *)

val line : t -> int
val col : t -> int

val offset : t -> int
(** The number of raw input bytes the parser has consumed.  Right after
    a [Start] event it is the offset just past the start tag's ['>'] (or
    ["/>"]).  It does not depend on the source or its block size. *)

val doctype_subset : t -> string option
(** The internal subset of the document's DOCTYPE (the text between the
    brackets), once the declaration has been consumed — feed it to
    {!Dtd.parse} to recover the DTD.  [None] when there is no DOCTYPE or
    it has no internal subset. *)

val to_list : t -> Event.t list
(** Drain the parser.  @raise Error on malformed input. *)
