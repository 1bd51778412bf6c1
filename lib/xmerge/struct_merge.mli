(** Structural merge of sorted XML documents (Example 1.1).

    The XML analogue of a sort-merge outer join, and the paper's main
    motivation for sorting: once both documents are fully sorted under the
    same ordering, they merge in a {e single pass}.  Two elements match
    when they have the same tag name, equal sort keys, and matching
    ancestors; matched elements are merged recursively (attributes
    unioned, left first on conflicts), unmatched elements are copied —
    an outer join.

    Requirements, checked at entry: the ordering is scan-evaluable (keys
    must be known at start tags for streaming), and both inputs are fully
    sorted under it (violations raise {!Not_sorted} as soon as they are
    observed).  Sort keys should be unique among siblings for meaningful
    matching, as in the paper.

    Text children share {!Nexsort.Key.Null} with elements that have no
    key, and the sorter orders that run by document position: a text may
    sit between null-keyed elements but never after a keyed one.
    Adjacent text events are one text (a sorted stream may split a run a
    parser reads whole).  A matched pair merges its two Null runs left
    first: a text equal on both sides at the same point is emitted once,
    null-keyed elements with equal tags match, and everything else is
    copied (no silent data loss).

    The tools merge over block devices, the user's files among them,
    through {!merge_devices} or {!sort_and_merge_devices}; a batch update
    is the same job with {!Batch_update.apply} as its {!pass}.  The
    string functions are the references the tests compare against. *)

exception Not_sorted of string
(** An input stream violated the sorted-children invariant. *)

type behaviour =
  | Merge      (** recursively merge the matched pair (default) *)
  | Take_right (** replace: emit the right subtree, drop the left *)
  | Drop       (** delete: emit neither subtree *)

type report = {
  left_events : int;
  right_events : int;
  output_events : int;
  matched_elements : int;
  spans : Obs.Span.t;
      (** the ["merge"] phase span under ["struct_merge"]: wall time, and
          I/O delta when an [io] meter was supplied *)
}

val merge_events :
  ?on_match:(left_attrs:Xmlio.Event.attr list -> right_attrs:Xmlio.Event.attr list -> behaviour) ->
  ?rewrite_attrs:(Xmlio.Event.attr list -> Xmlio.Event.attr list) ->
  ?io:(unit -> Extmem.Io_stats.t) ->
  ?tracer:Obs.Tracer.t ->
  ordering:Nexsort.Ordering.t ->
  left:(unit -> Xmlio.Event.t option) ->
  right:(unit -> Xmlio.Event.t option) ->
  emit:(Xmlio.Event.t -> unit) ->
  unit ->
  report
(** Merge two sorted event streams.  [on_match] decides what to do with a
    matched element pair (default: always [Merge]); [rewrite_attrs]
    post-processes attribute lists on emitted start tags (used by
    {!Batch_update} to strip operation markers); [io] is an optional
    cumulative I/O meter sampled around the merge for the report's span;
    [tracer] mirrors the merge spans onto an event-trace timeline (the
    device functions below supply both).
    @raise Not_sorted / [Invalid_argument] as described above. *)

val merge_strings :
  ordering:Nexsort.Ordering.t -> string -> string -> string * report
(** Parse, merge, serialize.  Inputs must already be sorted. *)

type 'r pass =
  io:(unit -> Extmem.Io_stats.t) ->
  tracer:Obs.Tracer.t ->
  ordering:Nexsort.Ordering.t ->
  left:(unit -> Xmlio.Event.t option) ->
  right:(unit -> Xmlio.Event.t option) ->
  emit:(Xmlio.Event.t -> unit) ->
  'r
(** One pass over two sorted event streams into [emit]: {!merge} or
    {!Batch_update.apply}.  The device functions supply the streams, the
    output writer, an I/O meter over all three devices and the tracer. *)

val merge : report pass
(** {!merge_events} with the default [on_match] and [rewrite_attrs]. *)

val merge_devices :
  ?tracer:Obs.Tracer.t ->
  pass:'r pass ->
  ordering:Nexsort.Ordering.t ->
  left:Extmem.Device.t ->
  right:Extmem.Device.t ->
  output:Extmem.Device.t ->
  unit ->
  'r
(** [pass] over device-resident sorted documents: one read pass over
    each input and one write pass of the output.  [tracer] (default
    none) records the pass's spans. *)

val sort_and_merge_devices :
  ?fuse:bool ->
  sessions:Nexsort.Session.t * Nexsort.Session.t ->
  pass:'r pass ->
  ordering:Nexsort.Ordering.t ->
  left:Extmem.Device.t ->
  right:Extmem.Device.t ->
  output:Extmem.Device.t ->
  unit ->
  'r
(** Sort both documents, the left over the first of [sessions] and the
    right over the second ([Engine.run_pair]; both are destroyed here on
    every exit path, and the first one's config gives the scratch
    devices and the tracer), then run [pass] onto [output].  Fused
    (default), the sorted documents exist only as event streams
    ({!Nexsort.open_stream}); [~fuse:false] sorts onto scratch devices
    first and then runs {!merge_devices}. *)

val sort_and_merge_strings :
  ?config:Nexsort.Config.t ->
  ?fuse:bool ->
  ordering:Nexsort.Ordering.t ->
  string ->
  string ->
  string * report
(** {!sort_and_merge_devices} with {!merge} over in-memory devices, on
    the session pair of [Engine.with_session_pair]. *)
