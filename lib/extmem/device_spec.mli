(** A mini-language for building device stacks.

    Every consumer of block storage — the sorter's session, the baselines,
    the CLIs ([--device]), the benchmark harness, the tests — constructs
    its devices through this factory, so any backend and any combination
    of layers can be injected anywhere without code changes.

    Grammar (layers outermost first, backend last):
    {v
      SPEC    ::= (LAYER "/")* BACKEND
      BACKEND ::= "mem" | "file:" PATH        (PATH may contain slashes)
      LAYER   ::= "stats"                      (no-op: always installed)
                | "traced"                     (record the access pattern)
                | "faulty" [":p=" P ",seed=" N]  (seeded random faults)
    v}

    Examples: ["mem"], ["file:/tmp/dev.img"], ["traced/mem"],
    ["faulty:p=0.001,seed=42/file:run.dev"].

    A [faulty] layer becomes an interceptor beneath the device's
    accounting ({!Layer}); [traced] becomes a subscriber to the device's
    I/O event ({!Device.subscribe}).  So a faulted I/O is not traced
    wherever the layers sit in the spec, and only the relative order of
    [faulty] layers matters (the outer one is consulted first). *)

type backend_spec =
  | Mem
  | File of string

type layer_spec =
  | Stats
  | Traced
  | Faulty of { p : float; seed : int }

type t = {
  layers : layer_spec list;  (** outermost first *)
  backend : backend_spec;
}

val default : t
(** [{ layers = []; backend = Mem }] — a plain accounting in-memory
    device, the historical behaviour. *)

val parse : string -> t
(** @raise Invalid_argument with a message quoting a one-line summary of
    the grammar on any
    malformed spec. *)

val to_string : t -> string
(** Round-trips through {!parse}. *)

type built = {
  device : Device.t;
  trace : Trace.t option;  (** the recorder of the first [traced] layer *)
}

val apply_layers : t -> Device.t -> built
(** Put the spec's layers over a device built elsewhere, ignoring the
    spec's backend: its [faulty] interceptors, and a subscriber for each
    [traced] layer.  This is how the CLIs' endpoints, devices
    over the user's own files, get the stack the spec names. *)

val build : ?name:string -> block_size:int -> t -> built
(** Instantiate the device: the spec's backend under {!apply_layers}
    (the head of [layers] outermost). *)

val build_scratch : name:string -> block_size:int -> t -> built
(** A scratch/per-component device under the same spec: identical layers,
    but a [file:PATH] backend is re-pointed at [PATH.NAME] so the many
    devices of one session do not collide on a single file. *)

val scratch : name:string -> block_size:int -> t -> Device.t
(** [build_scratch] without the handles. *)
