(** The pure in-memory half of a subtree sort (§4.1): forest
    reconstruction from a flat list of entry views, sibling sorting, and
    sorted-pre-order serialization.

    Nodes wrap {!Entry.View.t}s, so building and sorting a forest never
    decodes names, attributes or text, and emission passes the original
    encoded payloads through byte-identical (End entries synthesized in
    unpacked mode are the only bytes produced here).  No session, device
    or shared state is touched, so layer benchmarks and tests can drive
    them on bare entry views.  {!Subtree_sort} wraps them for the
    sorter. *)

type node = {
  view : Entry.View.t;
  mutable key : Key.t;
  mutable children : node list; (** reversed while building *)
}

val build_forest : Entry.View.t list -> node list
(** Rebuild the sibling forest from entry views in document order.  End
    entries resolve their element's key and close it; in packed mode
    (no End entries) elements close when a following entry's level shows
    they ended. *)

val sort_forest : depth_limit:int option -> node list -> node list
(** Sort every sibling list, leaving levels beyond [depth_limit] in
    document order. *)

val forest_pull :
  ?enc:Extmem.Codec.Enc.t -> packed:bool -> node list -> unit -> string option
(** The sorted pre-order walk of a forest as a pull stream of encoded
    entries: stored payloads pass through verbatim, and End entries are
    synthesized (via [enc], by default a private scratch encoder) unless
    [packed]. *)

val emit_node : packed:bool -> Extmem.Codec.Enc.t -> (string -> unit) -> node -> unit
(** [emit_node ~packed enc emit n] drains {!forest_pull} over [n] into
    [emit]. *)

(** {2 Key-path record streams}

    The pure half of an {e external} subtree sort (§3.1): entry views in,
    encoded {!Keypath} records out, and reconstruction of sorted records
    back into entries.  Like the forest functions, these touch no session
    or shared state: {!keypath_sort} uses only the budget and scratch
    device it is handed. *)

val forward_records :
  enc:Extmem.Codec.Enc.t ->
  depth_limit:int option ->
  (unit -> Entry.View.t option) ->
  unit ->
  string option
(** Key-path records from an entry-view stream in document order.  Keys
    must be on Start entries (scan-evaluable orderings); keys below
    [depth_limit] are suppressed so deeper levels keep document order. *)

val keypath_sort :
  arena:Extmem.Frame_arena.t ->
  budget:Extmem.Memory_budget.t ->
  temp:Extmem.Device.t ->
  encoding:Config.encoding ->
  enc:Extmem.Codec.Enc.t ->
  depth_limit:int option ->
  scan:[ `Forward | `Reverse ] ->
  (unit -> Entry.View.t option) ->
  string Pipe.opened
(** A key-path external sort of an entry-view stream, opened
    ({!Extsort.External_sort.sort_open}, its sorted records turned back
    into entries: payloads verbatim, End entries synthesized from level
    transitions unless packed): the records come from {!forward_records}
    or {!reverse_records} by [scan], run formation and all but the final
    merge pass consume the input here, and the returned stream is the
    final merge.  Its [close] releases what the sort still holds; the
    caller owns [temp]. *)
