(** Key-path external merge sort (§1, second strawman; Table 1).

    The flat-file approach the paper measures NEXSORT against: scan the
    input once, emit one key-path record per node (the concatenation of
    the sort keys along the path from the root, Table 1), externally
    merge-sort the records, and reconstruct the document from the sorted
    record stream.  It achieves the Θ(n·log_m n) flat-file bound but
    ignores the document structure, and for tall trees the key-path
    representation can be much larger than the input.

    Requires a scan-evaluable ordering — the record of an element is
    emitted when its start tag is read, before any subtree-derived key
    could be known.  Compaction (§3.2) applies here too via
    {!Nexsort.Config.encoding}, mirroring the paper's implementation which
    enables it for both algorithms. *)

type report = {
  records : int;        (** key-path records generated (one per node) *)
  record_bytes : int;   (** total size of the key-path representation *)
  initial_runs : int;
  merge_passes : int;
  input_io : Extmem.Io_stats.t;
  temp_io : Extmem.Io_stats.t;
  output_io : Extmem.Io_stats.t;
  total_io : Extmem.Io_stats.t;
  wall_seconds : float;
  spans : Obs.Span.t;
      (** phase spans under ["keypath_sort"]: [scan_sort_reconstruct] (the
          whole fused pipeline, including the final flush) plus the
          per-stage [open:]/[drain:] spans from [Pipe], with I/O deltas *)
}

val sort_device :
  ?config:Nexsort.Config.t ->
  ordering:Nexsort.Ordering.t ->
  input:Extmem.Device.t ->
  output:Extmem.Device.t ->
  unit ->
  report
(** Sort the document on [input] into [output].
    @raise Invalid_argument when the ordering is not scan-evaluable.
    @raise Xmlio.Parser.Error on malformed input. *)

val sort_string :
  ?config:Nexsort.Config.t -> ordering:Nexsort.Ordering.t -> string -> string * report

val keypath_table :
  ordering:Nexsort.Ordering.t -> string -> (string * string) list
(** The key-path representation as displayable rows (Table 1 of the
    paper): for every element, its key path (["/AC/Durham/454"]) and its
    start-tag text.  For exposition and the T1 benchmark. *)
