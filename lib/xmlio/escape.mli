(** XML escaping and entity decoding. *)

val escape_text : string -> string
(** Escape ampersand and angle brackets for use as character data.
    Carriage returns become [&#13;] so they survive the parser's
    end-of-line normalization. *)

val escape_attr : string -> string
(** Escape ampersand, angle brackets and both quote characters for use
    inside a double-quoted attribute value.  Whitespace other than the
    space character becomes a character reference ([&#9;], [&#10;],
    [&#13;]) so it survives attribute-value normalization. *)

val scan : attr:bool -> string -> int -> int -> int
(** [scan ~attr s i stop] is the index of the first byte of
    [s.[i..stop)] that needs escaping — as attribute-value text when
    [attr], as character data otherwise — or [stop] when none does.
    With {!entity} it escapes a slice in place, allocating nothing:
    copy [s.[i..j)], write [entity s.[j]], continue from [j + 1]. *)

val entity : char -> string
(** The reference a byte {!scan} stopped at is written as ([&amp;],
    [&lt;], [&#9;], ...).  @raise Invalid_argument on any other byte. *)

exception Bad_entity of string
(** Raised by {!decode_entity} on an unknown or malformed entity. *)

val decode_entity : string -> string
(** [decode_entity name] resolves an entity reference body (the text
    between [&] and [;]): the five predefined entities, decimal
    [#NNN] and hexadecimal [#xNNN] character references (ASCII and
    UTF-8-encoded code points). *)
