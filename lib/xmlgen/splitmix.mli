(** SplitMix64: a small, fast, deterministic PRNG.

    Workload generation must be reproducible across runs and independent
    of the global [Random] state, so the generators carry their own
    generator seeded explicitly. *)

type t

val create : int -> t
(** Seed a fresh stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)].  [bound] must be positive. *)

val in_range : t -> int -> int -> int
(** [in_range t lo hi] is uniform in [[lo, hi]] inclusive. *)

val letter : t -> char
(** A uniform lowercase letter. *)
