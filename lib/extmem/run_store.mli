(** Storage for sorted runs.

    NEXSORT collapses each sufficiently large subtree into a sorted run on
    disk; the output phase later traverses the resulting tree of runs.
    A [Run_store.t] owns one device and hands out append-only writers; each
    closed run gets a dense integer id that can be embedded in run-pointer
    entries on the data stack and inside other runs.

    Runs are written one at a time (a sort never interleaves two subtree
    sorts), which the store enforces.  A store is not thread-safe; one
    domain uses it.

    Every run is written once and read once, so its blocks are freed as
    its reader passes them (see {!open_run}): a store's device holds only
    the runs still to be read.  Each run starts on a fresh block, so no
    two runs share one.

    A run that a run pointer will name ({!finish_pointed}) keeps no
    short partial last block: its bytes past the last full block, its
    {e tail}, when they fit in a quarter block, travel inside the pointer
    entry, which is written and read once as part of the enclosing run
    anyway.  Its device blocks are full, and whoever opens it passes the
    tail back ({!open_run}).  Other runs (fragments, merge-pass outputs,
    and pointed runs with a longer partial block) end in a zero-padded
    block. *)

type t

type id = int
(** Dense run identifier, assigned at {!finish_run}. *)

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
(** Close the writer and register the run, its last block padded;
    returns its id. *)

val finish_pointed : t -> Block_writer.t -> id * int
(** Close the writer and register the run; returns its id and the
    length of its tail.  A run whose bytes past its last full block fit
    in a quarter block writes its full blocks only
    ({!Block_writer.close_split}): its tail (possibly empty) is the
    first bytes of the writer's buffer, which the caller copies into the
    run's pointer.  A longer partial block is cheaper padded on the
    device than carried along with the pointer's enclosing run: the run
    is closed as by {!finish_run}, with a tail of 0. *)

val open_run : ?buffer:bytes -> ?tail:Block_reader.tail -> t -> id -> Block_reader.t
(** A fresh sequential reader over the given run.  [buffer] is the
    reader's block buffer (typically an arena frame); [tail] the run's
    tail as {!finish_pointed} returned it (none by default).  Runs are read
    once: the reader consumes the run
    ({!Block_reader.of_run}), discarding each block once it has read past
    it.  A reader given up part-way may be followed by a new one that
    {!Block_reader.seek}s to its position, which re-reads only the
    block holding that position (none inside the tail).
    @raise Invalid_argument on an unknown id, or a tail whose length is
    not the run's. *)

val tail_length : t -> id -> int
(** The length of a run's tail (0 but for {!finish_pointed} runs).
    @raise Invalid_argument on an unknown id. *)

val read_run : ?buffer:bytes -> ?tail:Block_reader.tail -> t -> id -> unit -> string option
(** Streaming open: a pull over the run's length-prefixed records, for
    feeding a run into a pipeline without re-materialising it.  The
    reader holds one block of buffer; callers account for it (see
    [Pipe.of_run]).  It consumes the run, as {!open_run} does. *)

val total_run_blocks : t -> int
(** Sum of block counts over all runs (Lemma 4.8 measures this). *)

val total_run_bytes : t -> int
(** Sum of payload byte counts over all runs, tails included. *)

val inline_bytes : t -> int
(** Sum of the runs' tails: the payload bytes carried in run pointers
    instead of device blocks.  Below [run_count * block size]. *)
