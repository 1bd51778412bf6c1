(** String interning dictionaries.

    §3.2 of the paper observes that XML repeats tag and attribute names
    endlessly and proposes converting each unique string to an integer
    before sorting and back during output.  A [Dict.t] assigns dense ids
    in first-occurrence order; the compact entry encoding stores ids
    (1–2 byte varints) instead of names. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** The id of [s], assigning the next free id on first sight. *)

val intern_bytes : t -> bytes -> int -> int -> int * string
(** [intern_bytes d b off len] interns the byte range [b.[off..off+len)],
    returning its id and the canonical (shared) string.  Allocates only on
    first occurrence — the hot path for a parser resolving names straight
    out of its scratch buffer. *)

val lookup : t -> int -> string
(** The string behind an id.  @raise Invalid_argument on unknown ids. *)

val to_list : t -> string list
(** All interned strings in id order. *)
