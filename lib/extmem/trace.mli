(** I/O access-pattern traces.

    The paper's motivating argument (§1) is about access {e patterns}, not
    just counts: the naive nested-loop merge "generates element access
    patterns that do not at all correspond to the natural depth-first
    element ordering of disk-resident XML documents".  On a spinning disk
    that means seeks.  A trace records the sequence of block indices a
    device was asked for and summarises how sequential it was, so the
    claim can be quantified (benchmark [motivation]).  Like every device
    subscriber, a trace sees only I/Os that completed: a faulted access
    is not recorded. *)

type summary = {
  accesses : int;      (** total traced I/Os *)
  sequential : int;    (** accesses to the block following the previous one *)
  repeats : int;       (** accesses to the same block again *)
  backward : int;      (** accesses strictly before the previous block *)
  mean_distance : float;
      (** mean absolute distance in blocks between consecutive accesses —
          the seek-cost proxy *)
  max_block : int;
}

type t

val attach : Device.t -> t
(** Start tracing the device: subscribe a recorder of every completed
    I/O's block index ({!Device.subscribe}).  Traces compose with every
    other subscriber; several can be attached to one device. *)

val detach : t -> unit
(** Stop recording: unsubscribe the recorder, so repeated attach/detach
    cycles leave nothing behind.  Idempotent; the recorded trace stays
    readable. *)

val length : t -> int

val blocks : t -> int list
(** The recorded block indices, in access order. *)

val summarize : t -> summary

val sequential_fraction : summary -> float
(** [sequential / accesses] (1.0 for a perfect scan; 0 when empty). *)

val pp_summary : Format.formatter -> summary -> unit
