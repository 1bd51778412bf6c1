(** Sorting one complete subtree (Figure 4, line 11).

    Each sort kind opens one stream of the subtree's sorted encoded
    entries, a {!Pipe.opened}; the caller decides what the stream feeds.
    {!to_run} drains any of them into a sorted run; root fusion hands the
    root's stream straight to the output phase instead.  The kinds:

    - {!sort_in_memory_source}: the internal-memory recursive algorithm
      (build the tree, reorder child lists, serialize), for subtrees that
      fit in the arena;
    - {!sort_external_source}: a key-path external merge sort
      ({!Forest.keypath_sort}) for subtrees that exceed it;
    - {!merge_fragments_source}: the merge of an element's incomplete
      sorted runs — the graceful-degeneration extension (§3.2).  A
      {e fragment} is a sorted run holding a sorted subsequence of one
      element's children, each child chunk preceded by a small header
      carrying its (key, pos), so fragments can later be merged by key
      into the element's complete run ({!write_fragment}).

    Entries arrive and travel as {!Entry.View.t}s over their original
    encoded payloads: the sorts read levels, positions and keys off the
    encoded bytes and re-emit the payloads verbatim — names, attributes
    and text are never decoded, and nothing is re-encoded (synthesized
    End entries excepted).

    Every stream's [close] is idempotent and releases what its sort still
    holds; an opener that raises has released it already.  All sorts
    honour the session's depth limit: the child list of an element at
    level L is sorted only when L <= d (root = level 1). *)

val to_run :
  ?buffer:string ->
  Session.t ->
  string Pipe.opened ->
  pointer:(Extmem.Run_store.id -> string -> int -> 'a) ->
  'a
(** Drain an opened stream into a new registered run for a run pointer
    to name, closing the stream on every path, and return [pointer run
    s n]: the run's tail, the pointer's to carry
    ({!Extmem.Run_store.finish_pointed}), is the first [n] bytes of [s],
    valid during the call only.
    [buffer] names a one-block arena lease held for the
    drain: the run writer's buffer as an external sort charges it (its
    final merge leaves that block free); the other kinds charge none. *)

val sort_in_memory_source : Session.t -> Entry.View.t list -> string Pipe.opened
(** The internal-memory recursive sort of a complete subtree (first entry
    = its root's [Start]): sorts eagerly (the forest is in memory anyway)
    and streams the sorted pre-order walk.  Holds no memory reservation. *)

val sort_external_source :
  Session.t ->
  input:(unit -> Entry.View.t option) ->
  scan:[ `Forward | `Reverse ] ->
  string Pipe.opened
(** Key-path external merge sort of a subtree too large for memory.
    [`Forward] consumes entries in document order (keys must be on
    [Start] entries — scan-evaluable orderings); [`Reverse] consumes
    them top-of-stack first as popped from the data stack (keys taken
    from [End] entries, which always precede their subtrees in reverse
    order).  Reclaims the data-stack window's elastic blocks first
    ({!Plan.reclaim}), then enters the plan's external-sort phase
    ({!Plan.external_sort}), which the stream's close leaves; run
    formation and every intermediate merge pass consume [input] here, on
    the session's scratch device.  The final merge's fan-in stays leased
    until the stream ends or closes.
    @raise Failure when the budget's free blocks differ from the phase's
    grant. *)

val write_fragment : Session.t -> Entry.View.t list -> Extmem.Run_store.id
(** Sort a forest of children of one open element (document order,
    levels consistent) in memory and write it as an incomplete sorted run
    with per-chunk headers. *)

val merge_fragments_source :
  Session.t ->
  start_view:Entry.View.t ->
  fragments:Extmem.Run_store.id list ->
  string Pipe.opened * int
(** The merge of an element's fragment runs (in creation order) into its
    complete sorted stream, wrapped in the element's start (and, unless
    packed, end) entry, and the number of merge passes it takes, the
    final merge included.  When the fragments exceed the memory fan-in,
    intermediate passes ({!Extsort.External_sort.reduce}) first reduce
    them to what the final merge can lease, writing runs of their own;
    the count is the passes they ran.  The plan sizes the passes and
    moves the stack windows at the merge's boundaries
    ({!Plan.fragment_merge}).  Every batch leases its readers from the
    arena under ["fragment merge"] (with its output run's block) or, the
    final one until [close], ["fragment merge fan-in"]. *)
