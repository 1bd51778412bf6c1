(** The multi-tenant sort engine: process-wide resources — one memory
    budget, a metrics registry and a tracer — plus admission control,
    serving many concurrent sort jobs.  Each job runs on its caller's
    domain; the engine starts none.

    The engine is the only constructor of a {!Nexsort.Session}, which
    is one job's view of these resources: {!acquire} carves the job's
    budget out of the engine's (queuing the job when it does not fit,
    rather than raising [Exhausted]), {!session} builds the session over
    the carve, and {!release} returns it — force-reclaiming and
    counting whatever a faulted job leaked, so one tenant's abort can
    never shrink the engine.  One-job callers (the CLIs, tests, the
    session-less forms in [Xmerge]) run on a one-job engine
    ({!with_engine}, {!with_session}, {!sort_string}): same machinery.
    A fused merge holds two sessions at once; {!run_pair} admits both as
    one unit.

    {b Admission} is FIFO with per-tenant fairness: among queued jobs,
    the tenant with the fewest running jobs goes first (arrival order
    breaks ties), and nobody skips ahead of a queued job the budget
    cannot yet fit — a stream of small jobs cannot starve a large one.

    {b Cancellation} is cooperative: {!cancel} flips the job's flag;
    its session polls the flag at scan and output checkpoints and raises
    {!Cancelled}, after which the normal teardown path (session destroy,
    {!release}) returns every block. *)

exception Cancelled
(** Raised by a cancelled job's poll hook at its next checkpoint, and by
    {!acquire} if the job is cancelled while still queued. *)

exception Too_large of string
(** Raised by {!acquire} (and {!run}, {!run_pair}) for a job whose carve
    exceeds the engine's whole budget, so it could never be admitted;
    the job is not queued.  The message gives both sizes in bytes. *)

type t

type job
(** An admitted job: its carved budget, cancellation flag and queue-wait
    time.  Obtained from {!acquire}; must be {!release}d. *)

val create :
  ?tracer:Obs.Tracer.t ->
  memory_blocks:int ->
  block_size:int ->
  unit ->
  t
(** An engine with [memory_blocks] blocks of [block_size] bytes to carve
    jobs from; a job of [config] takes [config.memory_blocks] blocks of
    its own block size.  Job budgets of other block sizes are carved
    cross-granularity (charged in engine blocks, rounded up). *)

val acquire :
  ?name:string ->
  ?cancel:bool Atomic.t ->
  t ->
  tenant:string ->
  Nexsort.Config.t ->
  job
(** Admit one job for [tenant], blocking while the engine budget cannot
    cover it (the admission queue).  [name] labels the job in reports
    (default ["tenant#seq"]).  [cancel] supplies the job's cancellation
    flag — pass your own to be able to {!cancel} the job while it is
    still queued (before any [job] handle exists).
    @raise Cancelled if the flag is set while the job queues.
    @raise Too_large if the engine could never admit the job.
    @raise Invalid_argument on a destroyed engine. *)

val session : t -> job -> Nexsort.Session.t
(** The job's session — the only way to build one: its carved budget and
    its cancellation poll.
    Destroyed by the sorter on every exit path. *)

val release : t -> job -> unit
(** Return the job's carve to the engine and re-run admission.  Call
    after the session was destroyed; blocks still held by the carve at
    that point are a leak — added to [engine.leaked_blocks], then
    force-reclaimed so the engine budget is whole regardless.
    Idempotent. *)

val run :
  ?name:string ->
  ?cancel:bool Atomic.t ->
  t ->
  tenant:string ->
  Nexsort.Config.t ->
  (job -> Nexsort.Session.t -> 'a) ->
  'a
(** [run t ~tenant config f]: {!acquire}, build the {!session}, apply
    [f], and — on every exit path — destroy the session (idempotent if
    [f] already consumed it via [Sorter.sort_device ~session]) and
    {!release}.  The engine-path equivalent of one CLI invocation. *)

val run_pair :
  ?name:string ->
  ?cancel:bool Atomic.t ->
  t ->
  tenant:string ->
  Nexsort.Config.t ->
  (job -> Nexsort.Session.t * Nexsort.Session.t -> 'a) ->
  'a
(** {!run} for the two sessions of a fused merge.  Both halves are
    admitted as one unit — carved together or not at all — so a pair
    never holds one slot while it waits for the other, and concurrent
    pairs cannot deadlock.  On every exit path both sessions are
    destroyed and both jobs released.  [f] gets the left half's job
    handle (named [name ^ "-left"] when [name] is given). *)

val with_session : Nexsort.Config.t -> (Nexsort.Session.t -> 'a) -> 'a
(** [f] over the one job of a one-job engine, which is destroyed
    afterwards. *)

val with_session_pair :
  Nexsort.Config.t -> (Nexsort.Session.t * Nexsort.Session.t -> 'a) -> 'a
(** [f] over one {!run_pair} of a two-slot engine. *)

val with_engine : ?slots:int -> Nexsort.Config.t -> (t -> 'a) -> 'a
(** [f] over an engine sized for exactly [slots] (default 1) concurrent
    jobs of [config], with [config]'s tracer, destroyed afterwards: one
    sort runs through the same admission/carve/release machinery with
    zero queue wait.  Use [slots = 2] for one {!run_pair}. *)

val sort_string :
  ?config:Nexsort.Config.t ->
  ordering:Nexsort.Ordering.t ->
  string ->
  string * Nexsort.report
(** Sort a document held in a string on a one-job engine, over
    in-memory devices of [config] (default [Nexsort.Config.make ~ordering ()],
    whose encoding follows the ordering). *)

val cancel : t -> bool Atomic.t -> unit
(** Flip a job's cancellation flag (the one passed to {!acquire} as
    [cancel]) and wake the admission queue.  A queued job leaves the
    queue raising {!Cancelled}; a running one raises at its next poll
    checkpoint.  Safe from any thread. *)

val queue_wait_s : job -> float
(** Seconds the job spent in the admission queue (0 when admitted
    immediately). *)

val job_name : job -> string

val destroy : t -> unit
(** Shut the engine down: a later {!acquire} raises.
    @raise Invalid_argument while jobs are still queued or running.
    Idempotent. *)

val budget : t -> Extmem.Memory_budget.t

val registry : t -> Obs.Registry.t
(** Engine metrics: [engine.jobs_admitted] / [jobs_completed] /
    [jobs_queued] / [jobs_cancelled] counters, [engine.queue_wait_ms],
    [engine.leaked_blocks], and used/waiting/running gauges. *)

val leaked_blocks : t -> int
(** Total blocks force-reclaimed from faulted jobs so far (the value of
    the [engine.leaked_blocks] counter). *)

val job_json : t -> job -> Obs.Json.t
(** The per-job ["job"] report section: job name, tenant, queue wait and
    the engine's {!registry} snapshot at report time, as one flat
    object (integral values render as ints). *)
