(** Block-I/O accounting.

    The paper's primary performance metric is the number of block I/Os
    ("disk accesses").  Every {!Device.t} owns an [Io_stats.t]; every block
    read and write increments it.  Stats are plain mutable counters so they
    can be snapshotted and diffed around a phase of an algorithm. *)

type t = {
  mutable reads : int;   (** number of blocks read from the device *)
  mutable writes : int;  (** number of blocks written to the device *)
}

val create : unit -> t
(** Fresh zeroed counters. *)

val record_read : t -> unit
val record_write : t -> unit

val total : t -> int
(** [total s] is [s.reads + s.writes]. *)

val reset : t -> unit

val snapshot : t -> t
(** An independent copy of the current counter values. *)

val diff : t -> t -> t
(** [diff now before] is the component-wise difference, i.e. the I/Os that
    happened between the [before] snapshot and [now]. *)

val add : t -> t -> t
(** Component-wise sum (functional; inputs unchanged). *)

val accumulate : into:t -> t -> unit
(** [accumulate ~into s] adds [s]'s counters into [into]. *)

val pp : Format.formatter -> t -> unit
(** Prints as ["{reads=<r>; writes=<w>; total=<t>}"]. *)
