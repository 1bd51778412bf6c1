(** A NEXSORT session: the devices, stacks and memory budget of one sort.

    The paper's setup gives the algorithm an input stream, an output
    stream, three external stacks, a region for sorted runs and scratch
    space for external subtree sorts, all drawing from [M] blocks of
    internal memory.  A session materialises exactly that: each component
    gets its own virtual device so the per-component I/O breakdown of the
    analysis in §4.2 (input, subtree sorts, stack paging, run reads,
    output) can be measured directly.

    A session is {e one engine job's view} of its resources, and the
    engine is its only constructor ([Engine.session]): the job's budget
    is carved from the engine's, and the job gets a poll hook for
    cooperative cancellation.  A session is used by one domain, the one
    running its job.
    One-job callers go through a one-job engine ([Engine.with_session],
    [Engine.sort_string]). *)

type t = {
  config : Config.t;
  budget : Extmem.Memory_budget.t;
  arena : Extmem.Frame_arena.t;
      (** the session-wide frame arena over {!field-budget}: every
          block-holding component (stack windows, stream buffers, sort
          leases) draws its frames here under a [who] label, so budget
          exhaustion and the metrics report name the owners *)
  plan : Plan.t;
      (** the split of the job's blocks among the stack windows, the
          sorts and the output traversal, phase by phase *)
  dict : Xmlio.Dict.t;
  data_stack : Extmem.Ext_stack.t;
  path_stack : Extmem.Ext_stack.t;
  out_stack : Extmem.Ext_stack.t;
  runs : Extmem.Run_store.t;
  temp : Extmem.Device.t;
      (** the external subtree sorts' scratch device: each sort clears
          it first, so it holds one sort's runs at a time, and frees
          every block it reads *)
  registry : Obs.Registry.t;
      (** pull-gauge metrics over every session component — stacks
          ([stack.data.*], [stack.path.*], [stack.out.*]), run store
          ([runs.store.*]) and the devices ([dev.*], the scratch device
          as [dev.temp.*]); see {!Obs.Probe} *)
  poll : unit -> unit;
      (** cooperative cancellation hook, called at scan and output
          checkpoints; raises to abort the job (the engine's poll raises
          [Engine.Cancelled]). *)
  enc_scratch : Extmem.Codec.Enc.t;
      (** reusable encode scratch for the record path (entry/record
          encoding between phases) *)
  mutable destroyed : bool;  (** set by {!destroy} *)
}

val create :
  budget:Extmem.Memory_budget.t ->
  poll:(unit -> unit) ->
  Config.t ->
  t
(** Build the frame arena, stacks, run store and memory plan over a
    job's carved [budget] (of [config.memory_blocks] blocks).  Only
    [Engine.session] calls this.  Each stack leases the window the
    plan's scan phase grants it ({!Plan.scan}).  The data-stack window
    is elastic, over this session's budget only, so its growth never
    touches another tenant's blocks.  [poll] is called at scan and
    output checkpoints; raise from it to abort the job cooperatively. *)

val destroy : t -> unit
(** Tear the session down: close every stack window (frames and leases
    go back to the budget, nothing is flushed), close the stack, run and
    scratch devices, then run the registered {!add_destroy_probe} hooks.  Idempotent; costs no
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

val encode_entry : t -> Entry.t -> string
(** {!Entry.encode} under the session's encoding and dictionary (through
    the session's scratch encoder). *)

val view_entry : t -> string -> Entry.View.t
(** {!Entry.View.of_payload} under the session's encoding: wrap an
    encoded entry without decoding names, attributes or text. *)

val io_breakdown : t -> (string * Extmem.Io_stats.t) list
(** Per-component I/O counters: data/path/output-location stacks, runs
    (the store's device), scratch (the external sorts' device). *)

val total_io : t -> Extmem.Io_stats.t
(** Sum of {!io_breakdown} (input and output devices are owned by the
    caller and not included). *)

