(** Streaming output validator: recursive sortedness + permutation digest.

    Checks NEXSORT's correctness claim on an {!Xmlio.Event} stream in a
    single pass with O(height) memory:

    {ul
    {- {b recursive sortedness}: for every non-leaf element, the keys of
       its children (under the given {!Nexsort.Ordering} criterion, text
       nodes keyed [Null]) appear in non-decreasing {!Nexsort.Key} order —
       the local-orderedness invariant of a fully sorted document;}
    {- {b permutation preservation}: a 64-bit structural digest that is
       {e invariant under sibling reordering} (child elements combine
       commutatively; each parent's text children combine as one ordered
       concatenation, because a stable sort moves Null-keyed text to the
       front where adjacent nodes coalesce on re-parse without changing
       their relative order) but sensitive to everything else — names,
       attributes, text content, and which parent a subtree hangs from.
       Equal input/output digests mean the output is, with overwhelming
       probability, a re-serialization of the input obtained only by a
       text-order-preserving permutation of sibling lists.}}

    Together the two checks reject mis-sorts, drops, duplications and
    cross-parent moves, without materializing either document. *)

type finding = {
  path : string;    (** element path from the root, e.g. ["r/branch"] *)
  detail : string;  (** what was out of order *)
}

type report = {
  elements : int;
  text_nodes : int;
  digest : int64;           (** sibling-permutation-invariant structural digest *)
  findings : finding list;  (** sortedness violations, capped at 16 *)
}

val of_string :
  ?depth_limit:int -> ?keep_whitespace:bool -> ordering:Nexsort.Ordering.t -> string -> report
(** Check a document in one pass over its events.  With [depth_limit],
    sibling order is only checked for parents at level <= d (root = 1),
    matching {!Nexsort.Config.depth_limit}; the digest always covers the
    whole document.  @raise Xmlio.Parser.Error on malformed XML.
    @raise Invalid_argument on an unbalanced event stream. *)

val digest_of_string : ?keep_whitespace:bool -> string -> int64
(** The structural digest alone (computed under [Document_order], which
    can produce no findings) — the input-side half of {!check}. *)

val check :
  ?depth_limit:int ->
  ?keep_whitespace:bool ->
  ordering:Nexsort.Ordering.t ->
  input:string ->
  string ->
  (unit, string) result
(** [check ~ordering ~input output] validates [output] as a correct full
    sort of [input]: well-formed,
    recursively sorted, and digest-equal to the input.  The error string
    names the first failure. *)

val self_test : unit -> (unit, string) result
(** Prove the validator can reject: a correctly sorted document must
    pass, and deliberately mis-sorted / node-dropping / subtree-moving
    documents must each be rejected.  Run by the fuzz driver before it
    trusts any [Ok] verdict. *)
