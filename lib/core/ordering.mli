(** Ordering criteria: how to extract a sort key from an element.

    The paper's example sorts regions and branches by their [name]
    attribute and employees by [ID] (Figure 1); §3.2 extends this to
    "complex ordering criteria" evaluated over an element's subtree, such
    as [personalInfo/name/lastName], provided the expression can be
    computed in a single pass over the subtree with constant state.  All
    of those are supported here.

    A criterion is {e scan-evaluable} when its key is known from the start
    tag alone ([By_tag], [By_attr], [Document_order]); subtree criteria
    ([By_text], [By_path]) only produce their key once the end tag is
    reached.  NEXSORT handles both; the key-path merge-sort baseline
    requires scan-evaluable criteria (it emits each element's key path
    when its start tag is read).

    Text nodes always get the [Null] key: they keep document order among
    themselves and sort before keyed siblings. *)

type criterion =
  | By_tag            (** the element's tag name *)
  | By_attr of string (** value of the named attribute, [Null] if absent *)
  | By_text           (** concatenated direct text children of the element *)
  | By_path of string list
      (** text content of the first descendant, in document order,
          reached by the given tag path (e.g. [["personalInfo"; "name"]]),
          [Null] when no such descendant exists *)
  | Document_order    (** key [Null]: keep siblings in document order *)
  | Composite of criterion list
      (** lexicographic compound key — the recursively-defined orderings
          of the NF2 literature the paper discusses in §2, e.g. last name
          then first name *)
  | Desc of criterion (** descending order of the wrapped criterion *)

type t
(** A criterion assignment: per-tag rules with a default. *)

val make : ?rules:(string * criterion) list -> criterion -> t
(** [make ~rules default]: elements whose tag appears in [rules] use that
    criterion, all others use [default]. *)

val by_attr : string -> t
(** Every element sorts by the given attribute — the common case for
    data-centric documents (the paper's generators key every element by an
    [id]-like attribute). *)

val by_tag : t

val document_order : t

val criterion_for : t -> string -> criterion
(** The criterion that applies to elements with the given tag. *)

val scan_evaluable : criterion -> bool

val key_of_start : t -> string -> Xmlio.Event.attr list -> Key.t option
(** The key of an element given only its start tag; [None] when the
    applicable criterion is not scan-evaluable.  The shared helper behind
    the streaming merges and the key-path baseline. *)

val all_scan_evaluable : t -> bool
(** True when every rule and the default are scan-evaluable. *)

val key_of_tree : t -> Xmlio.Tree.element -> Key.t
(** Evaluate the applicable criterion against an in-memory element (used
    by the internal-memory baseline and by tests as the oracle). *)

(** {1 Streaming evaluation}

    The sorting-phase scan feeds every parser event to an evaluator, which
    produces each element's key as early as possible: at the start tag for
    scan-evaluable criteria, at the end tag for subtree criteria.  This is
    the implementation of §3.2's path-stack augmentation.  Only an open
    element whose key waits for its subtree holds expression state, and
    each event touches only that state: with a scan-evaluable ordering
    every event costs O(1), whatever the document's height. *)

module Evaluator : sig
  type eval

  val create : t -> eval

  val on_start : eval -> string -> Xmlio.Event.attr list -> Key.t option
  (** Open an element.  [Some key] iff its criterion is scan-evaluable. *)

  val on_start_lookup : eval -> string -> (string -> string option) -> Key.t option
  (** {!on_start} with attribute values supplied by a lookup function —
      the allocation-free variant for callers holding a packed event
      ({!Xmlio.Event.packed_attr}) instead of an attr assoc list. *)

  val on_text : eval -> string -> unit
  (** Character data inside the innermost open element. *)

  val on_end : eval -> Key.t option
  (** Close the innermost element.  [Some key] iff its criterion is a
      subtree criterion. *)
end

val pp_criterion : Format.formatter -> criterion -> unit

val of_spec_string : string -> t
(** Parse a command-line spec: a comma-separated list of
    [tag=criterion] rules with an optional bare [criterion] default,
    where criterion is [tag], [doc], [text], [@attr], an [a/b/c]
    descendant path, [-c] for descending, or [(c1;c2;...)] for a
    compound key.
    Example: ["@id,region=@name,employee=(personalInfo/name;-@ID)"].
    @raise Invalid_argument on a malformed spec. *)
