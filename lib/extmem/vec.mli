(** Resizable arrays.

    A minimal growable-array container used throughout the external-memory
    substrate (the OCaml 5.1 standard library does not yet provide
    [Dynarray]).  Elements are stored contiguously; [push] is amortised
    O(1); random access is O(1). *)

type 'a t

val create : unit -> 'a t
(** [create ()] is a fresh empty vector. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element.  @raise Invalid_argument if [i] is out
    of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** [set v i x] replaces the [i]-th element.  @raise Invalid_argument if
    [i] is out of bounds. *)

val push : 'a t -> 'a -> unit
(** Append one element at the end. *)

val pop : 'a t -> 'a
(** Remove and return the last element.  @raise Invalid_argument on an
    empty vector. *)

val top : 'a t -> 'a
(** Last element without removing it.  @raise Invalid_argument on an empty
    vector. *)

val clear : 'a t -> unit
(** Remove all elements (capacity is retained). *)

val truncate : 'a t -> int -> unit
(** [truncate v n] drops elements so that only the first [n] remain.
    No-op when [n >= length v]. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val to_array : 'a t -> 'a array

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort of the live prefix. *)
