(** Device interceptors: the layers that can fail or alter a block I/O.

    An interceptor wraps a {!Backend.t} with extra behaviour on the
    block-I/O path and returns a backend again.  {!Device.push_layer}
    stacks one over the device's backend, {e beneath} the device's
    accounting: a device counts an I/O, and tells its subscribers
    ({!Device.subscribe}), only after every interceptor has let it
    through to the backend.  An I/O an interceptor fails — including a
    write it damages before raising — is therefore seen by nothing: not
    counted, traced, timed or charged.

    Watching I/O is not an interceptor's job; that is what device
    subscribers are for. *)

type t

val make : (Backend.t -> Backend.t) -> t
(** Build a custom interceptor.  The wrapper must delegate to the inner
    backend for anything it does not change. *)

val wrap : t -> Backend.t -> Backend.t
(** [wrap layer backend] is [backend] behind [layer]. *)

val fault_hook : (Backend.op -> int -> bool) -> t
(** Deterministic fault injection: before each I/O the predicate decides
    whether to raise {!Backend.Fault} instead of executing it. *)

val faulty : ?seed:int -> p:float -> unit -> t
(** Seeded random fault injection: each I/O independently fails with
    probability [p], driven by a splitmix64 PRNG seeded with [seed] —
    the same seed always yields the same fault sequence.  Stacked fault
    layers are consulted outermost first, so their order matters.
    @raise Invalid_argument unless [0 <= p <= 1]. *)
