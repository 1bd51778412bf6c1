(** Document Type Definitions.

    §3.2 of the paper notes that "the availability of a DTD can greatly
    simplify" the string-to-integer compaction, since every tag and
    attribute name is known up front.  This module parses the internal
    subset of a DOCTYPE declaration — [<!ELEMENT ...>] content models and
    [<!ATTLIST ...>] declarations — well enough to:

    - {!preload} a {!Dict.t} with all declared names, so dictionary ids
      are stable and assigned before any data is scanned;
    - {!validate} documents against content models and attribute
      declarations (matching is by Brzozowski derivatives of the model).

    Parameter entities and external subsets are not supported (the
    paper's data model has no use for them). *)

(** Element content models. *)
type model =
  | Elem_name of string
  | Seq of model list     (** [(a, b, c)] *)
  | Choice of model list  (** [(a | b | c)] *)
  | Opt of model          (** [m?] *)
  | Star of model         (** [m*] *)
  | Plus of model         (** [m+] *)

type content =
  | Empty                 (** [EMPTY] *)
  | Any                   (** [ANY] *)
  | Mixed of string list  (** [(#PCDATA | a | b)*]; the list may be empty *)
  | Children of model

type att_type =
  | Cdata
  | Id
  | Idref
  | Nmtoken
  | Enum of string list

type att_default =
  | Required
  | Implied
  | Fixed of string
  | Default of string

type att_def = {
  att_name : string;
  att_type : att_type;
  att_default : att_default;
}

type t

exception Syntax_error of string
(** Raised by {!parse} on malformed declarations. *)

val parse : string -> t
(** Parse the text of an internal subset (the part between [\[] and [\]]
    of a DOCTYPE), i.e. a sequence of ELEMENT/ATTLIST declarations and
    comments. *)

val element_names : t -> string list
(** Declared element names, in declaration order. *)

val content_model : t -> string -> content option

val attributes : t -> string -> att_def list
(** Declared attributes of an element ([] when none). *)

val names : t -> string list
(** Every name a document using this DTD can contain: element names and
    attribute names, in first-declaration order — the preload order for
    dictionaries. *)

val preload : t -> Dict.t -> unit
(** Intern all {!names} into the dictionary (the §3.2 simplification). *)

(** {1 Validation} *)

type violation = {
  element : string;  (** element where the violation was found *)
  message : string;
}

val validate : t -> Tree.t -> violation list
(** All violations found in the document: undeclared elements (only when
    the DTD declares at least one element), children sequences not
    matching the content model, text where the model forbids it, missing
    REQUIRED attributes, values outside an enumeration, and FIXED
    attribute mismatches.  Empty list = valid. *)
