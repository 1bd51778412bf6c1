(** Simulated I/O time: a hardware-independent cost meter.

    The paper's primary metric is the I/O {e count}, but its motivating
    argument is about access {e patterns} — seeks cost orders of magnitude
    more than sequential transfers on a spinning disk.  A cost model
    charges each block I/O a transfer cost plus, when the access does not
    continue where the previous one on the same device left off, a seek
    penalty.  Subscribed to a device with {!Device.attach_cost}, it lets
    benchmarks report a simulated time that rewards sequential layouts the
    way real hardware does, while staying deterministic and
    hardware-independent. *)

type params = {
  seek_ms : float;   (** charged when an access is not sequential *)
  read_ms : float;   (** per-block transfer cost of a read *)
  write_ms : float;  (** per-block transfer cost of a write *)
}

val hdd : params
(** Spinning-disk-flavoured defaults: seeks dominate (8 ms seek vs
    ~0.05 ms per-block transfer). *)

val ssd : params
(** Flash-flavoured: seeks nearly free, writes slightly dearer than
    reads. *)

type t
(** A cost accumulator, one per {!Device.attach_cost}. *)

val create : ?params:params -> unit -> t
(** Fresh zeroed meter; default parameters are {!hdd}. *)

val charge : t -> sequential:bool -> Backend.op -> unit
(** Charge one block I/O.  The device subscriber calls this; tests may
    too. *)

val params : t -> params

val charged : t -> int
(** Number of I/Os charged. *)

val seeks : t -> int
(** Number of non-sequential accesses. *)

val elapsed_ms : t -> float
(** Total simulated time, in milliseconds. *)

val pp : Format.formatter -> t -> unit
