(** In-memory document trees (the DOM-style representation).

    Used by the internal-memory recursive sort baseline, by the subtree
    sorter for subtrees that fit in memory, and by tests as the reference
    model.  Construction from and flattening to event streams are inverse
    up to whitespace handling. *)

type t =
  | Element of element
  | Text of string

and element = {
  name : string;
  attrs : Event.attr list;
  children : t list;
}

val element : ?attrs:Event.attr list -> string -> t list -> t
(** Convenience constructor. *)

val text : string -> t

exception Malformed of string
(** Raised by the [of_*] constructors on unbalanced event streams. *)

val of_events : Event.t list -> t
(** Build the tree of the single root element of the stream. *)

val of_string : ?keep_whitespace:bool -> string -> t
(** Parse a document into a tree.  @raise Parser.Error on malformed XML. *)

val to_events : t -> Event.t list

val to_string : ?decl:bool -> ?indent:bool -> t -> string

val equal : t -> t -> bool

val size : t -> int
(** Number of nodes (elements and text nodes), the paper's [N]. *)

val element_count : t -> int
(** Number of element nodes only. *)

val height : t -> int
(** Levels of elements: a single element is height 1; text nodes do not
    add a level. *)

val max_fanout : t -> int
(** Maximum number of children (elements and text nodes) over all
    elements, the paper's [k]. *)

val map_children : (element -> t list) -> t -> t
(** Rebuild the tree bottom-up, replacing every element's child list with
    the function's result (applied to the element whose children have
    already been rewritten). *)

val pp : Format.formatter -> t -> unit
