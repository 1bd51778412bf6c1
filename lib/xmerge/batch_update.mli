(** Batch updates by merging (§1).

    The paper's second application of sorting: to apply a large batch of
    updates to a sorted document, sort the batch under the same ordering
    and merge it in, in a single pass; the result remains sorted.

    An update document mirrors the base document's structure.  Elements
    may carry an [__op] attribute:

    - [__op="delete"]: the matching base element (and subtree) is removed;
    - [__op="replace"]: the matching base subtree is replaced wholesale;
    - no [__op] (or [__op="merge"]): upsert — merged into the matching
      base element, or inserted if there is no match.

    [__op] attributes are stripped from the output.  A delete of an
    element that does not exist is a silent no-op (the unmatched update
    element would otherwise be inserted; deletes are never inserted).

    Over block devices, {!apply} is the pass of a structural merge
    ({!Struct_merge.merge_devices}, or {!Struct_merge.sort_and_merge_devices}
    to sort both first); the string functions are the tests' references. *)

val op_attr : string
(** The operation-marker attribute name, ["__op"] (shared with
    {!Ingest}, which folds buffered updates into marker-carrying batch
    documents). *)

type report = {
  merge : Struct_merge.report;
  deletes : int;            (** delete markers honoured (matched) *)
  replaces : int;
  unmatched_deletes : int;  (** delete markers with no base match (no-ops) *)
}

val apply_events :
  ?io:(unit -> Extmem.Io_stats.t) ->
  ?tracer:Obs.Tracer.t ->
  ordering:Nexsort.Ordering.t ->
  base:(unit -> Xmlio.Event.t option) ->
  updates:(unit -> Xmlio.Event.t option) ->
  emit:(Xmlio.Event.t -> unit) ->
  unit ->
  report
(** Streaming form: both inputs sorted, single pass. *)

val apply : report Struct_merge.pass
(** {!apply_events} as a pass: the left stream is the base. *)

val apply_strings :
  ordering:Nexsort.Ordering.t -> base:string -> updates:string -> string * report
(** Apply a {e sorted} update document to a {e sorted} base document.
    @raise Struct_merge.Not_sorted / [Invalid_argument] as in
    {!Struct_merge.merge_events}. *)

val sort_and_apply_strings :
  ?config:Nexsort.Config.t ->
  ordering:Nexsort.Ordering.t ->
  base:string ->
  updates:string ->
  unit ->
  string * report
(** Sort both inputs with NEXSORT first, then apply. *)
