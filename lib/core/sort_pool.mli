(** Domain pool for parallel subtree sorts, shared across jobs.

    The pool itself is only domains plus a bounded task queue; every
    job-owned resource (scratch run devices, writer buffers, run store,
    external-sort headroom) lives in a per-job {!view}, so one pool can
    serve many concurrent sessions with different configurations and a
    job's I/O counters never mix with another tenant's.

    Determinism contract (why [--jobs N] output and I/O counters are
    byte-identical to [--jobs 1]): run ids are {!Extmem.Run_store.reserve}d
    by the submitting thread at the single-threaded sequence points;
    workers are pure over already-encoded payloads; every task writes to
    a per-(view, worker) device with block-padded runs, so run block
    counts depend only on content; external tasks get exactly the arena
    the single-threaded sort would have leased; and {!drain} is the one
    barrier, after which runs are installed in id order. *)

type t
(** The shared pool: worker domains and the task queue. *)

type view
(** One job's handle on the pool: per-worker scratch devices and writer
    buffers, the run store runs are installed into, and the headroom
    budget external tasks carve their arenas from. *)

type worker_stats = {
  w_index : int;
  w_tasks : int;  (** tasks completed *)
  w_entries : int;  (** entries written across those tasks *)
  w_io : Extmem.Io_stats.t;  (** this view's scratch-run device I/O *)
}

val slab_blocks : int
(** Writer-buffer blocks per worker a view reserves in its job budget
    (the session inflates the budget by [workers * slab_blocks] so the
    blocks visible to the algorithm are unchanged). *)

val create : ?tracer:Obs.Tracer.t -> workers:int -> unit -> t
(** Spawn [workers] domains.  Each registers a ["worker i"] tracer
    track.  The pool owns no memory or devices.
    @raise Invalid_argument if [workers < 1]. *)

val workers : t -> int

val view :
  t ->
  config:Config.t ->
  runs:Extmem.Run_store.t ->
  budget:Extmem.Memory_budget.t ->
  ext_budget:Extmem.Memory_budget.t ->
  view
(** Open a job's view.  Reserves [workers t * slab_blocks] blocks in
    [budget] (as ["pool writer buffers"]) and creates one scratch run
    device per worker via [config].  [ext_budget] supplies the arena
    blocks for {!submit_external} tasks; carves from it are charged
    there, never to [budget].
    @raise Extmem.Memory_budget.Exhausted if [budget] cannot cover the
    writer buffers. *)

val submit_sort : t -> view -> run:Extmem.Run_store.id -> string list -> unit
(** Enqueue a subtree sort: rebuild the forest from the encoded entry
    payloads (document order), sort it, write the run.  [run] must have
    been {!Extmem.Run_store.reserve}d by the caller.  Blocks when the
    queue is full (bounded at twice the worker count). *)

val submit_copy : t -> view -> run:Extmem.Run_store.id -> string list -> unit
(** Enqueue a verbatim run write of pre-sorted payloads (degenerated
    fragments: already sorted, just being spilled). *)

val submit_external :
  t ->
  view ->
  run:Extmem.Run_store.id ->
  scan:[ `Forward | `Reverse ] ->
  arena_blocks:int ->
  string list ->
  unit
(** Enqueue a run-spilling subtree sort: key-path records are built from
    the payloads ([scan] names their order), merge-sorted through a
    private temp device with an [arena_blocks]-block arena carved from
    the view's headroom budget, and the reconstructed entry stream is
    written as one run.  [arena_blocks] must equal the lease the
    single-threaded path would take (measured after the same reclaim) so
    the run structure and temp I/O match the [--jobs 1] bill. *)

val drain : t -> view -> unit
(** Wait for this view's submitted tasks, then install their runs in id
    order.  If tasks failed, re-raises the failure with the smallest run
    id (= earliest submission) after installing the successful runs, so
    fault identity matches the single-threaded path. *)

val worker_stats : view -> worker_stats list
(** Per-worker totals for this view (snapshot at close once closed). *)

val io : view -> Extmem.Io_stats.t
(** This view's scratch-run device I/O (captured at close once closed). *)

val sim_ms : view -> float

val temp_io : view -> Extmem.Io_stats.t
(** I/O of retired external-task temp devices (the job's "scratch" bill). *)

val temp_sim_ms : view -> float

val leaked_blocks : view -> int
(** Blocks aborted external tasks failed to return to their arenas
    (force-reclaimed into the headroom budget, but counted here so a
    faulted job's leak is visible to the engine). *)

val close_view : t -> view -> unit
(** Tear down a job's view: discard its queued tasks (abort path — their
    reserved run ids are never read), wait out its in-flight task,
    snapshot totals, close the scratch devices and release the writer
    buffer reservation.  Other views are untouched.  Idempotent. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  All views must be closed first.
    Idempotent. *)
