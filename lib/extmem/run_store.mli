(** Storage for sorted runs.

    NEXSORT collapses each sufficiently large subtree into a sorted run on
    disk; the output phase later traverses the resulting tree of runs.
    A [Run_store.t] owns one device and hands out append-only writers; each
    closed run gets a dense integer id that can be embedded in run-pointer
    entries on the data stack and inside other runs.

    Runs on the store's own device are written one at a time (a sort
    never interleaves two subtree sorts), which the store enforces.  A
    run written elsewhere can join the store by reference: {!reserve} an
    id, then {!install} the (device, extent) pair that holds it — this is
    how [Extsort.Ext_pq.meld] adopts another queue's runs.  A store is
    not thread-safe; one domain uses it. *)

type t

type id = int
(** Dense run identifier, assigned at {!finish_run} or {!reserve}. *)

val create : Device.t -> t
(** A store using [dev] for run payloads.  Run metadata (extents) is held
    in memory, mirroring a file system's allocation tables. *)

val device : t -> Device.t

val run_count : t -> int

val begin_run : ?buffer:bytes -> t -> Block_writer.t
(** Open the writer for a new run.  [buffer] is passed to
    {!Block_writer.create} (one block, typically an arena frame).
    @raise Invalid_argument if a run is already open. *)

val finish_run : t -> Block_writer.t -> id
(** Close the writer and register the run; returns its id. *)

val reserve : t -> id
(** Claim the next run id with no payload yet.  The run stays pending —
    reading it is an error — until {!install} supplies its extent. *)

val install : t -> id -> dev:Device.t -> extent:Extent.t -> unit
(** Fill a {!reserve}d slot with a finished run, possibly on a device
    other than the store's own (another store's device).
    @raise Invalid_argument on an unknown id or an already-installed
    run. *)

val open_run : ?buffer:bytes -> t -> id -> Block_reader.t
(** A fresh sequential reader over the given run, on whichever device
    holds it.  [buffer] is the reader's block buffer (typically an arena
    frame).
    @raise Invalid_argument on an unknown or still-pending id. *)

val read_run : ?buffer:bytes -> t -> id -> unit -> string option
(** Streaming open: a pull over the run's length-prefixed records, for
    feeding a run into a pipeline without re-materialising it.  The
    reader holds one block of buffer; callers account for it (see
    [Pipe.of_run]). *)

val run_extent : t -> id -> Extent.t

val total_run_blocks : t -> int
(** Sum of block counts over all installed runs (Lemma 4.8 measures
    this); pending reservations contribute nothing. *)

val total_run_bytes : t -> int
(** Sum of payload byte counts over all runs. *)
