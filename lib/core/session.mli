(** A NEXSORT session: the devices, stacks and memory budget of one sort.

    The paper's setup gives the algorithm an input stream, an output
    stream, three external stacks, a region for sorted runs and scratch
    space for external subtree sorts, all drawing from [M] blocks of
    internal memory.  A session materialises exactly that: each component
    gets its own virtual device so the per-component I/O breakdown of the
    analysis in §4.2 (input, subtree sorts, stack paging, run reads,
    output) can be measured directly.

    A session is {e one job's view} of its resources.  Standalone it
    creates everything itself; under an {!Engine} it is handed a budget
    carved from the engine's, a view of the engine's shared
    {!Sort_pool}, and a poll hook for cooperative cancellation — the
    session never knows the difference. *)

type t = {
  config : Config.t;
  budget : Extmem.Memory_budget.t;
  arena : Extmem.Frame_arena.t;
      (** the session-wide frame arena over {!field-budget}: every
          block-holding component (stack windows, stream buffers, sort
          leases) draws its frames here under a [who] label, so budget
          exhaustion and the metrics report name the owners *)
  dict : Xmlio.Dict.t;
  data_stack : Extmem.Ext_stack.t;
  path_stack : Extmem.Ext_stack.t;
  out_stack : Extmem.Ext_stack.t;
  runs : Extmem.Run_store.t;
  temp_stats : Extmem.Io_stats.t;
      (** accumulated I/O of retired scratch devices (external subtree
          sorts and fragment merges) *)
  mutable temp_sim_ms : float;
      (** accumulated simulated time of retired scratch devices (when the
          configured device spec carries a [cost] layer) *)
  registry : Obs.Registry.t;
      (** pull-gauge metrics over every session component — stacks
          ([stack.data.*], [stack.path.*], [stack.out.*]), run store
          ([runs.store.*]) and their devices ([dev.*]); see
          {!Obs.Probe} *)
  pool : (Sort_pool.t * Sort_pool.view) option;
      (** the worker pool serving this job and this job's view of it;
          [None] when [config.jobs = 1] (the single-threaded code path).
          The pool may be shared with other jobs (engine); the view
          never is. *)
  pool_host : Sort_pool.t option;
      (** a pool spawned for this session alone (standalone
          [--jobs N]); shut down at {!destroy}.  [None] when the pool in
          {!field-pool} is engine-shared, or when there is no pool. *)
  poll : unit -> unit;
      (** cooperative cancellation hook, called at scan and output
          checkpoints; raises to abort the job (the engine's poll raises
          [Engine.Cancelled]).  Defaults to a no-op. *)
  enc_scratch : Extmem.Codec.Enc.t;
      (** reusable encode scratch for the main thread's record path
          (entry/record encoding between phases); worker domains carry
          their own — never share this across domains *)
  mutable destroyed : bool;  (** set by {!destroy} *)
}

val job_blocks : ?pool:Sort_pool.t -> Config.t -> int
(** The budget size one job needs: the algorithm-visible
    [config.memory_blocks] plus the pool writer buffers its view
    reserves on top ([workers * Sort_pool.slab_blocks] when
    [config.jobs > 1], with the worker count taken from [pool] when the
    job will share one).  {!create} sizes its own budget this way;
    engine admission carves exactly this much, so the blocks the
    algorithm can see are identical either way. *)

val ext_blocks : ?pool:Sort_pool.t -> Config.t -> int
(** Headroom blocks for offloaded external subtree sorts: each
    in-flight external task carves at most the job's full arena, one
    task per worker.  Zero when [config.jobs = 1]. *)

val create :
  ?budget:Extmem.Memory_budget.t ->
  ?pool:Sort_pool.t ->
  ?ext_budget:Extmem.Memory_budget.t ->
  ?poll:(unit -> unit) ->
  Config.t ->
  t
(** Build the frame arena, stacks and run store.  Each stack leases its
    own window from the arena — the data-stack window, the path-stack
    window and one block for the output-location stack (the input buffer
    is charged by the scan pipeline stage).  What remains of the budget
    is the sorting arena.  The data-stack window is {e elastic}: it
    borrows idle arena blocks to avoid paging and gives them back via
    {!reclaim} whenever a phase actually reserves memory.  Because the
    window draws only on this session's own budget, its borrowing can
    never touch another tenant's blocks.

    [budget] supplies the job's memory (an engine-carved sub-budget); it
    must hold {!job_blocks} blocks.  Omitted, a private budget of that
    size is created.

    When [config.jobs > 1] the session sorts subtrees through a
    {!Sort_pool}: [pool] names a shared (engine) pool to open a view on,
    else a private pool of [config.jobs] workers is spawned (and shut
    down at {!destroy}).  The view's writer buffers are reserved in the
    job budget — which {!job_blocks} inflates by exactly that much, so
    the [memory_blocks] visible to the algorithm, and every size-based
    decision, are unchanged.  [ext_budget] supplies the headroom
    offloaded external sorts carve their arenas from ({!ext_blocks}
    blocks); omitted, a private one is created.

    [poll] is called at scan and output checkpoints; raise from it to
    abort the job cooperatively. *)

val sync : t -> unit
(** Barrier over the worker pool ({!Sort_pool.drain}): every submitted
    subtree sort is finished and installed afterwards.  Re-raises the
    first worker failure in run-id order.  A no-op with one job. *)

val arena_bytes : t -> int
(** Internal-memory bytes available to a subtree sort right now (also the
    trigger level for graceful degeneration).  Counts blocks currently
    lent to the data-stack window — they are reclaimable on demand — so
    sort and degeneration decisions are independent of borrowing. *)

val reclaim : t -> unit
(** Return every block the data-stack window borrowed to the budget
    (evicting the window down to its configured size), so a phase about
    to reserve arena memory actually finds it available. *)

val leaked_blocks : t -> int
(** Blocks aborted offloaded external sorts failed to return to their
    arenas (see {!Sort_pool.leaked_blocks}); zero on the single-threaded
    path.  The engine folds this into its per-job leak accounting. *)

val destroy : t -> unit
(** Tear the session down: close the pool view first (waiting out
    in-flight worker tasks and returning the writer buffers — also when
    a worker raised mid-sort), shut down the pool if this session owns
    it, close every stack window (frames and leases go back to the
    budget, nothing is flushed), close the stack and run devices, then
    run the registered {!add_destroy_probe} hooks.  Idempotent; costs no
    I/O.  {!Sorter} destroys its session on every exit path, so after a
    sort — successful or aborted — the budget holds zero blocks unless a
    phase leaked (which the probes exist to catch). *)

val add_destroy_probe : (t -> unit) -> unit
(** Register a global hook run at the end of every {!destroy}, after the
    session's own resources were released.  Verification harnesses use
    this to assert resource invariants ({!Extmem.Memory_budget} empty,
    {!Extmem.Frame_arena} ledger quiescent) after every run, including
    aborted ones.  Probes should record violations rather than raise:
    destroy runs in exception finalizers, where a raising probe would
    mask the original failure. *)

val with_temp : t -> (Extmem.Device.t -> 'a) -> 'a
(** Run a scope with a fresh scratch device; its I/O counters are folded
    into {!field-temp_stats} afterwards, also on exceptions.  Calls
    {!reclaim} first — scratch scopes exist to run external sorts, which
    reserve the arena. *)

val encode_entry : t -> Entry.t -> string
(** {!Entry.encode} under the session's encoding and dictionary (through
    the session's scratch encoder; main thread only). *)

val decode_entry : t -> string -> Entry.t

val view_entry : t -> string -> Entry.View.t
(** {!Entry.View.of_payload} under the session's encoding: wrap an
    encoded entry without decoding names, attributes or text. *)

val io_breakdown : t -> (string * Extmem.Io_stats.t) list
(** Per-component I/O counters: data/path/output-location stacks, runs
    (the store's device plus this job's worker scratch devices), scratch
    (retired temp devices, main-thread and offloaded). *)

val total_io : t -> Extmem.Io_stats.t
(** Sum of {!io_breakdown} (input and output devices are owned by the
    caller and not included). *)

val simulated_ms : t -> float
(** Total simulated time charged to the session's internal devices —
    stacks, run store, retired scratch — when the config's device spec
    includes a [cost] layer; [0.] otherwise.  Input/output devices are the
    caller's. *)
