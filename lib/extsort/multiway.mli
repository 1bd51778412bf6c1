(** K-way merging of sorted streams.

    The merge step of external merge sort: given [k] streams that are each
    sorted under [cmp], produce their sorted union.  Implemented with a
    binary tournament heap, so each output record costs O(log k)
    comparisons and no I/O beyond what the input streams themselves do
    (one buffer block per stream when they are {!Extmem.Block_reader}s).

    The merge leases nothing: the caller's lease covers those buffer
    blocks ({!External_sort.reduce} for a pass's batches, the final
    merge's opener for {!merge_pull}).

    The merge is stable across streams: on equal records, the stream with
    the smaller index wins. *)

val merge :
  cmp:(string -> string -> int) ->
  inputs:(unit -> string option) array ->
  output:(string -> unit) ->
  unit ->
  unit
(** [merge ~cmp ~inputs ~output ()] drains all input streams into
    [output] in sorted order.  Streams must individually be sorted under
    [cmp]; this is not checked. *)

val merge_pull :
  lease:Extmem.Frame_arena.lease ->
  cmp:(string -> string -> int) ->
  inputs:(unit -> string option) array ->
  unit ->
  (unit -> string option) * (unit -> unit)
(** Streaming variant for pipeline fusion: [merge_pull ~lease ~cmp
    ~inputs ()] returns [(pull, close)] where [pull] yields the sorted
    union on demand.  [lease] is the caller's, covering the fan-in
    buffers it opened; the merge assumes ownership and closes it when
    the stream is exhausted or [close] is called (whichever comes first;
    [close] is idempotent).  The first record of every input is read
    here; if that raises, the lease is closed before the exception
    leaves. *)
