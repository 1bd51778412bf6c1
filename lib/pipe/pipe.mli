(** Pull-based streaming pipelines with budgeted memory.

    TPIE-style pipelining ("External Memory Pipelining Made Easy With
    TPIE", Arge et al.): phases that would otherwise materialise their
    output on disk and re-read it are fused into one pass by handing one
    phase's pull stream straight to the next.  A pipeline is a
    {e source}, which produces records (or any values) on demand, and a
    {e sink}, which consumes them and owns the final flush; a stream
    rewrite is just a function from one pull to another.

    Every stage declares the number of internal-memory blocks it needs
    (its stream buffers); {!open_source} and {!run} reserve them from the
    shared {!Extmem.Memory_budget.t} before the stage allocates, so
    exceeding [M] surfaces as {!Extmem.Memory_budget.Exhausted} naming
    the stage instead of silently inflating memory.  Stages that size
    their memory dynamically (an external sort reserving its arena, a
    fragment merge reserving its fan-in) declare [mem = 0] and reserve
    internally at open time under their own name — the protocol is that
    {e every} block-sized buffer is reserved by somebody before it is
    allocated.

    Opening is deferred: building a pipeline allocates nothing; the
    source's [open] runs when the pipeline is opened.  Closing is
    exception-safe: {!run} closes the sink even when the stream raises
    mid-way, so a failing pipeline cannot leave a torn, unflushed final
    block behind (the original exception is re-raised; a secondary
    failure inside the flush is suppressed in that case). *)

type 'a pull = unit -> 'a option
(** A pull stream: [None] is end of stream and must be sticky. *)

type 'a source
type 'a sink

type 'a opened = {
  pull : 'a pull;
  close : unit -> unit;  (** idempotent; releases the stream's reservation *)
}

val source : ?mem:int -> who:string -> (unit -> 'a pull * (unit -> unit)) -> 'a source
(** [source ~mem ~who open_] is a stage producing a pull stream.  [open_]
    runs at pipeline-open time, after [mem] blocks (default 0) have been
    reserved, and returns the stream plus its closer. *)

val of_run :
  ?who:string ->
  ?tail:Extmem.Block_reader.tail ->
  Extmem.Run_store.t ->
  Extmem.Run_store.id ->
  string source
(** Streaming read of a stored run ({!Extmem.Run_store.read_run}), [tail]
    its tail; declares the reader's one buffer block, and one more for a
    non-empty tail, which the reader holds in memory. *)

val sink : ?mem:int -> who:string -> (unit -> ('a -> unit) * (unit -> unit)) -> 'a sink
(** [sink ~mem ~who open_] consumes records.  [open_] returns the push
    function and the closer; the closer must flush (it is called on both
    success and failure paths). *)

val fn_sink : who:string -> ('a -> unit) -> 'a sink
(** A memoryless sink around a plain function. *)

val open_source :
  ?spans:Obs.Spans.t -> budget:Extmem.Memory_budget.t -> 'a source -> 'a opened
(** Reserve the source's [mem] blocks under its [who], then run its open
    (under an ["open:<who>"] span when [spans] is given).  The returned
    [close] runs the source's closer and releases the reservation; it is
    idempotent.  If the open raises, the reservation is released.

    @raise Extmem.Memory_budget.Exhausted naming the source. *)

val drain : 'a pull -> ('a -> unit) -> unit
(** Pump a stream to exhaustion. *)

val run_opened :
  ?spans:Obs.Spans.t -> budget:Extmem.Memory_budget.t -> 'a opened -> 'a sink -> unit
(** Reserve the sink's blocks, open it, pump the stream into it, close
    everything.  The sink is closed (flushed) even when the stream or the
    push raises — the original exception is re-raised and a secondary
    exception from the flush is suppressed.  The opened source is closed
    in all cases. *)

val run : ?spans:Obs.Spans.t -> budget:Extmem.Memory_budget.t -> 'a source -> 'a sink -> unit
(** [open_source] followed by {!run_opened}. *)
