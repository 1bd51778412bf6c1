(** Block devices with exact I/O accounting and one I/O event per device.

    A device is a linear array of fixed-size blocks.  All data that is
    "on disk" in the sense of the external-memory model of Aggarwal and
    Vitter lives on a device; every whole-block read or write is counted in
    the device's {!Io_stats.t}.  This is the reproduction's substitute for
    TPIE: the paper uses TPIE for explicit control and detailed accounting
    of I/O operations, which is exactly what this module provides.

    Internally a device is a raw {!Backend.t} (in-memory or file; see
    {!Backend}) behind zero or more {!Layer} interceptors, the layers that
    can fail or alter an I/O (fault injection).  Above them the device
    itself does the accounting: each I/O that comes back from the backend
    is counted in {!stats} and then delivered, as one event, to the
    device's subscribers in subscription order.  Everything that watches
    I/O is a subscriber: access-pattern traces ({!Trace.attach}) and the
    event tracer's latency histograms and per-I/O events.  An I/O an
    interceptor fails is seen by none of them.  Devices are normally
    built from a textual spec via {!Device_spec}.

    Devices are append-allocated: {!allocate} extends the device and
    returns the index of the first new block.  Reading a block that was
    allocated but never written yields zeroes.  A block whose contents
    are done with can be {!discard}ed; the device counts the blocks still
    live and the most ever live at once. *)

type t

type op = Backend.op =
  | Read
  | Write

exception Fault of op * int
(** Alias of {!Backend.Fault}, raised by fault-injection layers. *)

val in_memory : ?name:string -> block_size:int -> unit -> t
(** [in_memory ~block_size ()] is a fresh virtual disk.  [block_size] must
    be positive. *)

val file : ?name:string -> ?readonly:bool -> block_size:int -> path:string -> unit -> t
(** [file ~block_size ~path ()] opens (creating or truncating) [path] as a
    block device backed by the real file system.  With [~readonly:true]
    it opens an existing regular file as it is: the device starts with
    the file's blocks allocated and its size as {!byte_length}, nothing is
    loaded or counted, and the device must only be read.
    @raise Sys_error when the file cannot be opened or is not a regular
    file. *)

val of_string : ?name:string -> block_size:int -> string -> t
(** [of_string ~block_size s] is an in-memory device pre-loaded with the
    bytes of [s] (zero-padded to a whole number of blocks); its byte length
    is recorded so {!byte_length} returns [String.length s].  Initial
    loading is not counted as I/O. *)

val load_string : t -> string -> unit
(** Preload the device with the bytes of a string through the raw backend:
    no I/O is counted and no interceptor or subscriber sees it.  Records
    the byte length.  Works on any backend (used to stage real input files
    onto file-backed devices). *)

val push_layer : t -> Layer.t -> unit
(** Stack one more interceptor over the device's backend, outside the
    ones already there and beneath the accounting.  An interceptor stays
    for the device's lifetime. *)

type subscription

val subscribe :
  ?clock:(unit -> int) ->
  t ->
  (op -> int -> start_ns:int -> dur_ns:int -> unit) ->
  subscription
(** [subscribe dev f] calls [f op block ~start_ns ~dur_ns] after every
    I/O on [dev] that the backend completed (and {!stats} counted), after
    the subscribers that came before.  When a subscriber passes [clock] (a
    monotonic ns counter), the device reads the first such clock around
    each I/O and every subscriber receives the start and duration;
    otherwise both are [0] and no clock is read.  With no subscriber the
    I/O path reads no clock and allocates nothing. *)

val unsubscribe : t -> subscription -> unit
(** Stop delivering events to a subscriber.  Idempotent. *)

val block_size : t -> int

val block_count : t -> int
(** Number of allocated blocks. *)

val byte_length : t -> int
(** Logical byte length of the device contents, as recorded by
    {!set_byte_length} (defaults to [block_count * block_size]). *)

val set_byte_length : t -> int -> unit
(** Record the logical byte length (writers call this on [close] so readers
    know where the data ends within the last block). *)

val stats : t -> Io_stats.t
(** The device's I/O counters (live; mutated by every read/write). *)

val allocate : t -> int -> int
(** [allocate dev n] extends the device by [n] blocks and returns the index
    of the first one.  Allocation itself performs no I/O. *)

val discard : t -> int -> unit
(** [discard dev i] declares block [i] dead: it will never be read or
    written again, so the backend may reclaim it ({!Backend.t}'s
    [discard]; the in-memory backend frees the block, the file backend
    ignores it).  A discard is not an I/O: it changes no {!stats}, no
    subscriber sees it, and fault layers do not fail it.
    @raise Invalid_argument if [i] is out of range, or (in memory) if
    it was already discarded. *)

val clear : t -> unit
(** [clear dev] discards every block and empties the device (a file
    backend truncates its file): the next {!allocate} returns block 0.
    Not an I/O: {!stats} and {!peak_live_blocks} go on across it. *)

val live_blocks : t -> int
(** Allocated blocks not yet discarded. *)

val peak_live_blocks : t -> int
(** The most blocks ever live at once. *)

val read_block : t -> int -> bytes -> unit
(** [read_block dev i buf] reads block [i] into [buf] (which must be at
    least [block_size] long) and counts one read.
    @raise Invalid_argument if [i] is out of range. *)

val write_block : t -> int -> bytes -> unit
(** [write_block dev i buf] writes [buf]'s first [block_size] bytes to
    block [i] and counts one write.  Writing one block past the end
    auto-allocates.  @raise Invalid_argument if [i] is further out of
    range. *)

val contents : t -> string
(** The whole device contents as a string of {!byte_length} bytes (not
    counted as I/O; for tests and for writing final output files). *)

val copy : src:t -> dst:t -> unit
(** [copy ~src ~dst] writes every block of [src] to the empty device
    [dst], one counted read and one counted write per block through one
    block buffer, and gives [dst] the byte length of [src]: a device
    streamed out to a file-backed one without a whole-contents copy.
    @raise Invalid_argument when the block sizes differ or [dst] is not
    empty. *)

val flush : t -> unit
(** Flush through the interceptors to the backend (no-op for the built-in
    ones). *)

val close : t -> unit
(** Release OS resources (no-op for in-memory devices). *)
