(** The memory plan: one split of a sort job's [M] blocks per phase.

    The paper splits [M] among the three stacks and the subtree sorts
    (Figure 4, §3.1), and degeneration's merge (§3.2) takes what the
    others leave.  This module decides that split.  As in the TPIE
    pipelining paper, each phase lists its consumers with a minimum, a
    maximum and a grant, and grants change only at phase boundaries:

    - {b scan}: the input buffer, the stack windows and the sort arena
      (the rest).  The data-stack window is elastic: it grows over idle
      arena blocks instead of paging, and {!reclaim} takes them back.
    - {b fragment merge}: when it saves a pass, the idle windows go to
      0 blocks and the intermediate passes take them.
    - {b final batch}: the output-location window comes back; the data
      and path windows when the batch closes ({!sort_done}).
    - {b external sort}: a key-path sort of a subtree too large for the
      sort arena (§3.1) takes the arena's blocks until its stream closes
      ({!sort_done}).
    - {b output}: the empty data and path stacks' windows go to the run
      traversal.

    {!Extmem.Ext_stack.resize} applies a window's grant. *)

type grant = {
  who : string;  (** the consumer, as named in the budget's ledger *)
  min : int;
  max : int;
  granted : int;
}

val scan : memory_blocks:int -> path_blocks:int -> data_blocks:int -> grant list
(** The scan phase's grants: each consumer gets its minimum, then the
    rest goes out in this order, each up to its maximum: ["input scan"]
    (1), ["output location stack window"] (1), ["path stack window"] (2
    to [path_blocks]), ["data stack window"] (1 to [data_blocks]),
    ["sort arena"] (at least 3: a 2-way merge and its output).
    @raise Invalid_argument when [memory_blocks] cannot cover the
    minimums. *)

val granted : grant list -> string -> int
(** A consumer's grant, [0] when the phase does not list it. *)

type merge = {
  width : int;   (** runs merged by one intermediate batch *)
  target : int;  (** at most this many runs reach the final batch *)
}

type t

val create :
  budget:Extmem.Memory_budget.t ->
  scan:grant list ->
  data:Extmem.Ext_stack.t ->
  path:Extmem.Ext_stack.t ->
  out:Extmem.Ext_stack.t ->
  t
(** The plan of a session whose stacks hold [scan]'s window grants. *)

val sort_arena_bytes : t -> int
(** The largest subtree sorted in memory, and the children's region at
    which degeneration cuts a fragment. *)

val reclaim : t -> unit
(** Return the data-stack window to its grant. *)

val fragment_merge : t -> fragments:int -> merge
(** Boundary: a merge of [fragments] runs starts.  Its batches lease
    their readers and, in an intermediate pass, one block for the
    output run ({!Extsort.External_sort.reduce}).  The windows go to the
    passes only when that saves one
    ({!Extsort.External_sort.passes_needed}): it costs their dirty
    blocks' write-back and later page-ins. *)

val final_batch : t -> merge -> unit
(** Boundary: the merge's final batch opens. *)

val external_sort : t -> int
(** Boundary: an external subtree sort starts.  Its one consumer,
    ["external sort"] (at least 3 blocks), is granted every block the
    other consumers of the phase in force leave; that grant is
    returned. *)

val sort_done : t -> unit
(** A fragment merge's final batch or an external sort's stream closed:
    the windows return to the phase in force, the scan or, for a fused
    root, the output. *)

val output : t -> writer:bool -> unit
(** Boundary: the output traversal starts, with an XML writer when
    [writer].  The run traversal may take every block nobody holds. *)

val phases : t -> (string * int * grant list) list
(** The phases entered so far: name, entries, grants of the last entry. *)
