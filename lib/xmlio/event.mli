(** SAX-style XML events.

    The streaming interfaces of this library — parser, writer, sorter —
    exchange documents as sequences of these events, the "units of XML
    data" of the paper's pseudo-code (Figure 4, line 3). *)

type attr = string * string
(** Attribute name and (unescaped) value.  Order is preserved. *)

type t =
  | Start of string * attr list  (** start tag: element name, attributes *)
  | End of string                (** end tag: element name *)
  | Text of string               (** character data (unescaped) *)

val equal : t -> t -> bool
(** Structural equality on the character data (names, attributes in order,
    text).  Implemented by explicit string comparison, not polymorphic [=],
    so it stays correct when events mix interned and fresh strings. *)

(** {1 Packed events}

    A reusable scratch record that streaming producers fill in place: the
    hot scan loop reads one event at a time without allocating an
    [Event.t], name strings (producers with a {!Dict.t} share the interned
    canonical copy) or attribute assoc lists.  The record and its arrays
    are only valid until the producer's next event — consumers that need to
    retain one call {!of_packed}. *)

type pkind =
  | Pstart
  | Pend
  | Ptext

type packed = {
  mutable pkind : pkind;
  mutable pname : string;  (** element name ([Pstart]/[Pend]) *)
  mutable pname_id : int;  (** dict id of [pname], [-1] when not interned *)
  mutable pnattrs : int;  (** live prefix length of the attribute arrays *)
  mutable pattr_names : string array;
  mutable pattr_ids : int array;  (** dict ids of names, [-1] when not interned *)
  mutable pattr_values : string array;
  mutable ptext : string;  (** character data ([Ptext]) *)
}

val packed_create : unit -> packed

val packed_grow_attrs : packed -> unit
(** Double the attribute capacity, preserving the live prefix. *)

val packed_attr : packed -> string -> string option
(** Attribute lookup on a packed [Pstart]. *)

val of_packed : packed -> t
(** Materialize an owned [Event.t] (allocates the attr list). *)

val pack_into : packed -> t -> unit
(** Fill the scratch from an owned event (ids are set to [-1]). *)

val pp : Format.formatter -> t -> unit

val to_debug_string : t -> string
