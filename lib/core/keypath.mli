(** Key-path records (Table 1 of the paper).

    The key path of a node is the sequence of sort keys of the elements on
    the path from (sub)tree root to the node, each key paired with the
    node's document position as the uniqueness tiebreak.  Sorting records
    by key path puts them exactly in the pre-order of the sorted document:
    a parent's path is a strict prefix of its descendants' paths (so it
    sorts first), and siblings compare by their final (key, pos)
    component.

    These records drive the key-path external merge-sort baseline and the
    external subtree sorts inside NEXSORT (Figure 4, line 11).  Records
    are compared in their encoded form, without allocation. *)

type component = {
  key : Key.t;
  pos : int;  (** document position of the element contributing [key] *)
}

val encode_record : ?enc:Extmem.Codec.Enc.t -> component list -> payload:string -> string
(** [encode_record path ~payload] serializes a record whose key path is
    [path] (outermost component first) carrying an opaque payload (an
    encoded {!Entry.t}).  [?enc] supplies a reusable scratch encoder; it is
    cleared first, and the returned string is still freshly allocated. *)

val decode_path : string -> component list

val decode_payload : string -> string

val compare_encoded : string -> string -> int
(** Lexicographic comparison of the key paths: component-wise by
    [(Key.compare, pos)], a strict prefix ordering before its extensions.
    Payloads do not participate. *)

val path_to_string : component list -> string
(** Display form, ["/NE/Durham/454"]-style (Table 1). *)
