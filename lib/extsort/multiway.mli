(** K-way merging of sorted streams.

    The merge step of external merge sort: given [k] streams that are each
    sorted under [cmp], produce their sorted union.  Implemented with a
    binary tournament heap, so each output record costs O(log k)
    comparisons and no I/O beyond what the input streams themselves do
    (one buffer block per stream when they are {!Extmem.Block_reader}s).

    Those per-stream buffer blocks are real memory: with [?arena] the
    merge holds a {!Extmem.Frame_arena.lease} of one block per input for
    its duration, so an over-wide merge raises
    {!Extmem.Memory_budget.Exhausted} naming the merge (via [?who],
    default ["<k>-way merge"]) instead of silently exceeding [M].

    The merge is stable across streams: on equal records, the stream with
    the smaller index wins. *)

val merge :
  ?arena:Extmem.Frame_arena.t ->
  ?who:string ->
  cmp:(string -> string -> int) ->
  inputs:(unit -> string option) array ->
  output:(string -> unit) ->
  unit ->
  unit
(** [merge ~cmp ~inputs ~output ()] drains all input streams into
    [output] in sorted order.  Streams must individually be sorted under
    [cmp]; this is not checked.  With [?arena], one block per input is
    leased for the duration of the merge.

    @raise Extmem.Memory_budget.Exhausted when the fan-in does not fit. *)

val merge_pull :
  ?arena:Extmem.Frame_arena.t ->
  ?lease:Extmem.Frame_arena.lease ->
  ?who:string ->
  cmp:(string -> string -> int) ->
  inputs:(unit -> string option) array ->
  unit ->
  (unit -> string option) * (unit -> unit)
(** Streaming variant for pipeline fusion: [merge_pull ~cmp ~inputs ()]
    returns [(pull, close)] where [pull] yields the sorted union on
    demand.  With [?arena], a fan-in lease is taken up front and closed
    when the stream is exhausted or [close] is called (whichever comes
    first; [close] is idempotent).  With [?lease] the caller hands over
    an already-held lease instead (covering the fan-in buffers it
    opened); the merge assumes ownership and closes it the same way.
    The first record of every input is read here; if that raises, the
    lease is closed before the exception leaves. *)
