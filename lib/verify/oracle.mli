(** The in-memory reference oracle.

    A trivially-correct recursive sorter over {!Xmlio.Tree}, written
    independently of both the external algorithms and the
    [Baselines.Tree_sort] strawman so differential runs compare three
    genuinely separate implementations.  Only usable on documents that
    fit in memory — which is exactly the regime fuzz documents live in.

    The contract it encodes is NEXSORT's §1 definition of a fully sorted
    document: the children of {e every} element are ordered by
    [(key, document position)] under the given {!Nexsort.Ordering}
    criterion, where positions are assigned by a pre-order scan of the
    {e input}, and nothing else about the document changes. *)

val sort_tree : ?depth_limit:int -> Nexsort.Ordering.t -> Xmlio.Tree.t -> Xmlio.Tree.t
(** Recursively order every element's child list.  With [depth_limit],
    only child lists of elements at level <= d are sorted (root = 1),
    mirroring {!Nexsort.Config.depth_limit}. *)

val sort_string :
  ?depth_limit:int -> ?keep_whitespace:bool -> Nexsort.Ordering.t -> string -> string
(** Parse, sort, serialize.  Serialization goes through {!Xmlio.Writer}
    with the same settings as the external sorters' output phase, so the
    result is byte-comparable to [Engine.sort_string]. *)
