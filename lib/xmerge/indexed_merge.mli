(** Index-assisted nested-loop merge — the paper's parenthetical remedy.

    §1 qualifies the naive merge's cost: "looking for a particular branch
    in a region requires scanning half of the region subtree on average,
    {e unless there is an additional index}".  This comparator supplies
    that index: one sequential pass over the right document builds a
    disk-resident {!Extmem.Btree} mapping (parent offset, child position)
    to each child's tag, sort key, attributes and extent.  The merge then
    walks the left document as in {!Naive_merge}, but resolves right-side
    children and subtree extents from the index instead of re-scanning the
    document.

    What the experiment shows (benchmark [motivation]): the index removes
    the quadratic re-scanning, but you pay to build and probe it, and the
    right document is still read out of order — the sort-merge approach
    remains ahead and needs no auxiliary structure. *)

type report = {
  matched_elements : int;
  index_entries : int;
  index_build_io : Extmem.Io_stats.t;  (** index-device I/O during the build *)
  left_io : Extmem.Io_stats.t;
  right_io : Extmem.Io_stats.t;
  index_io : Extmem.Io_stats.t;        (** total index-device I/O *)
  output_io : Extmem.Io_stats.t;
  total_io : Extmem.Io_stats.t;
  pager : Extmem.Btree.stats;  (** the index's buffer pool (the probe cost) *)
  wall_seconds : float;
  spans : Obs.Span.t;
      (** phase spans: [index_build] and [probe_merge] under
          ["indexed_merge"], with per-phase I/O deltas *)
}

val merge_devices :
  arena:Extmem.Frame_arena.t ->
  ordering:Nexsort.Ordering.t ->
  left:Extmem.Device.t ->
  right:Extmem.Device.t ->
  output:Extmem.Device.t ->
  unit ->
  report
(** Same semantics and restrictions as {!Naive_merge.merge_devices}; the
    index lives on a private device whose I/O is reported separately.
    Its 8-frame buffer pool is leased from [arena] under ["btree"] and
    returned on every exit path.
    @raise Extmem.Memory_budget.Exhausted when the arena's budget has
    fewer than 8 free blocks. *)
