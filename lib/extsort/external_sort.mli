(** External merge sort over record streams.

    The classic Θ(n·log_m n) algorithm the paper compares NEXSORT against,
    and the machinery NEXSORT itself reuses for subtree sorts that exceed
    internal memory (§3.1, line 11) and for merging incomplete runs in the
    graceful-degeneration extension (§3.2).

    The sort works on opaque records (byte strings) under a caller-supplied
    total order:

    - {e Run generation}: records are accumulated in an internal-memory
      arena sized by the {!Extmem.Memory_budget.t}, sorted, and written to
      the temp device as initial runs.
    - {e Merging}: runs are merged [fan-in] at a time by the pass driver
      {!reduce} until one pass remains, which is merged directly into the
      output sink.  The fan-in is {!fan_in} of the blocks free at open:
      inside a NEXSORT session, the plan's ["external sort"] grant.

    An input that fits in the arena never touches the temp device: it is
    sorted in memory and streamed straight to the output. *)

(** {1 The pass driver} *)

val fan_in : int -> int
(** [fan_in free] is the runs one batch merges in [free] blocks: one
    block is the batch's output, and a merge is at least 2-way. *)

val passes_needed : width:int -> target:int -> int -> int
(** [passes_needed ~width ~target n] is the passes {!reduce} runs to bring
    [n] runs down to at most [target], merging [width] at a time
    ([width >= 2], [target >= 1]). *)

val reduce :
  arena:Extmem.Frame_arena.t ->
  who:string ->
  width:int ->
  target:int ->
  merge:('run list -> 'run) ->
  'run list ->
  'run list * int
(** [reduce ~arena ~who ~width ~target ~merge runs] runs merge passes
    until at most [target] runs are left, and returns them with the
    passes run ({!passes_needed}).  A pass cuts the runs, in order, into
    batches of [width]; [merge batch] writes each batch's output run
    while a lease of [List.length batch + 1] blocks under [who] covers
    its readers and that run's block.
    @raise Extmem.Memory_budget.Exhausted when a batch's lease does not
    fit, naming [who]. *)

(** {1 The sort} *)

type run_formation =
  [ `Load_sort  (** fill the arena, sort it, write a run (the default) *)
  | `Replacement_selection
    (** heap-based run formation: runs average twice the arena size on
        random input, halving the run count and often saving a merge
        pass — the classic tape-era optimisation, ablated in
        [bench/main.exe ablate-runs] *)
  ]

type stats = {
  records : int;       (** number of records sorted *)
  bytes : int;         (** total payload bytes *)
  initial_runs : int;  (** runs written by the run-generation phase *)
  merge_passes : int;  (** full merge passes over the data, the final
                           one included: 0 when the input fit in memory,
                           1 when a single run was read back *)
}

type opened = {
  pull : unit -> string option;
      (** the sorted stream; pulling it to exhaustion releases the
          sort's remaining reservation *)
  close : unit -> unit;
      (** idempotent; releases whatever the sort still holds (call when
          abandoning the stream early) *)
  stats : stats;
      (** complete at open time: [merge_passes] includes the final,
          streaming merge *)
}
(** A sort whose final merge has been opened as a pull stream instead of
    drained into a sink — the pipeline-fusion entry point. *)

val sort_open :
  ?run_formation:run_formation ->
  ?arena:Extmem.Frame_arena.t ->
  budget:Extmem.Memory_budget.t ->
  temp:Extmem.Device.t ->
  cmp:(string -> string -> int) ->
  input:(unit -> string option) ->
  unit ->
  opened
(** [sort_open ~budget ~temp ~cmp ~input ()] drains [input], forms runs,
    runs every merge pass but the last, and returns the final merge as a
    pull stream — fusing the sort's output boundary into whatever
    consumes it (no materialised output run).

    Memory is held per phase as {!Extmem.Frame_arena.lease}s (on
    [arena] when given — it must wrap [budget] — else on a private
    arena over [budget]): run formation leases all currently-available
    blocks (at least 3 are required: 2-way merge fan-in plus an output
    buffer) under ["external sort run formation"] and closes the lease
    when runs are cut; each batch of an intermediate pass leases its
    readers and its output block under ["external sort merge"]
    ({!reduce}); the final merge holds its fan-in under ["external sort
    final merge"] until the stream is exhausted or closed.  When the input fits in the formation arena, the sorted
    records stay leased until the stream is done.  Run reader/writer
    block buffers are recycled through the arena's pool.

    Temp-device contents are garbage after the stream is drained and may
    be reused by subsequent sorts (each sort appends; pass a fresh device,
    or {!Extmem.Device.clear} the old one, to reclaim space).

    @raise Extmem.Memory_budget.Exhausted when fewer than 3 blocks are
    free. *)

val sort :
  ?run_formation:run_formation ->
  budget:Extmem.Memory_budget.t ->
  temp:Extmem.Device.t ->
  cmp:(string -> string -> int) ->
  input:(unit -> string option) ->
  output:(string -> unit) ->
  unit ->
  stats
(** [sort ~budget ~temp ~cmp ~input ~output ()] is {!sort_open} drained
    into [output] (reserving one output-buffer block for the drain).
    Peak memory use equals the blocks available at entry.

    @raise Extmem.Memory_budget.Exhausted when fewer than 3 blocks are
    free. *)
