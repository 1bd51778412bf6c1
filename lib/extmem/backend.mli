(** Raw block storage: the bottom of the composable device stack.

    A backend is a record of functions moving whole blocks between memory
    and some store — the narrow waist every {!Device.t} is built on.
    Backends know nothing about range checks, I/O accounting, tracing or
    fault injection: {!Layer} interceptors wrap a backend to inject
    faults, and {!Device} counts each I/O and tells its subscribers.  This
    mirrors TPIE's split between its BTE (block transfer engine) and the
    stream/collection layers above it.

    Two primitive backends are provided: an in-memory virtual disk and a
    real file.  New backends (mmap, remote, compressed, …) only need to
    fill in this record to plug into the whole system. *)

type op =
  | Read
  | Write

exception Fault of op * int
(** Raised by fault-injection layers (see {!Layer.faulty}) in place of
    performing the I/O.  Lives here so both {!Device} and layers can refer
    to it without a dependency cycle. *)

type t = {
  name : string;
  block_size : int;
  read_block : int -> bytes -> unit;
      (** [read_block i buf] fills [buf] (≥ [block_size] bytes) with block
          [i].  The caller has already range-checked [i]. *)
  write_block : int -> bytes -> unit;
      (** [write_block i buf] stores [buf]'s first [block_size] bytes as
          block [i]. *)
  allocate : int -> unit;
      (** Extend the store by [n] blocks reading as zeroes.  May be a no-op
          for sparse stores. *)
  flush : unit -> unit;  (** Push buffered writes down (no-op for primitives). *)
  close : unit -> unit;  (** Release OS resources. *)
}

val mem : ?name:string -> block_size:int -> unit -> t
(** A fresh in-memory virtual disk. *)

val file : ?name:string -> ?readonly:bool -> block_size:int -> path:string -> unit -> t * int
(** [file ~block_size ~path ()] opens (creating or truncating) [path] and
    returns it with its size in bytes (0 after the truncation); with
    [~readonly:true] it opens the existing regular file as it is, for
    reading only.  Unwritten (sparse) blocks, and blocks past the end of
    the file, read as zeroes.
    @raise Sys_error when the file cannot be opened, or is opened
    read-only and is not a regular file. *)

val sys_error : string -> Unix.error -> exn
(** [sys_error path e] is the [Sys_error] reporting [e] on [path], as
    [path: message]. *)
