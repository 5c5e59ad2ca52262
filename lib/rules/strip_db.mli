(** The STRIP database facade.

    Bundles the whole system — catalog, lock manager, virtual clock, rule
    manager, and the discrete-event engine — behind the interface an
    application sees: execute statements, define rules, register user
    functions, submit update transactions, and run the system.

    Statements executed through {!exec} run in their own transaction and go
    through the full end-of-transaction rule protocol, so an [UPDATE] here
    triggers rules exactly like one inside an experiment.  Tasks created by
    rules (and by {!submit_update}) wait in the engine; {!run} drains
    them. *)

type t

val create :
  ?policy:Strip_txn.Queues.policy ->
  ?cost:Strip_sim.Cost_model.t ->
  ?now:float ->
  ?fault:Strip_txn.Fault.config ->
  ?durable:Strip_txn.Durable.t ->
  ?retry:Strip_sim.Engine.retry ->
  ?overload:Strip_sim.Engine.overload ->
  ?servers:int ->
  ?lock_timeout_s:float ->
  ?trace:Strip_obs.Trace.t ->
  ?slo:Strip_obs.Slo.t ->
  ?provenance:Strip_obs.Provenance.t ->
  ?stats:Strip_sim.Stats.t ->
  unit ->
  t
(** [fault] installs a deterministic fault injector on every task
    transaction (rule actions and update tasks); [retry] enables the
    engine's bounded-exponential-backoff recovery for failed tasks;
    [overload] enables watermark-based shedding of delayed rule tasks.
    All three default to off, preserving fail-fast semantics.

    [durable] wires a write-ahead log and checkpoint store (see
    docs/RECOVERY.md): every commit appends redo images and unique-queue
    transitions and fsyncs, {!checkpoint} installs action-consistent
    snapshots, and after a {!Strip_txn.Fault.Crashed} escape the pair is
    what {!Recovery.recover} rebuilds from.  Without it, no durability
    work happens at all — crash-free runs are byte-identical to a build
    without this subsystem.

    [servers] (default 1) sets the engine's executor count; the lock
    manager arbitrates overlapping service windows for real (blocked tasks
    park and wake FIFO by task id; waits past [lock_timeout_s] are
    presumed deadlocked and retried).  See docs/CONCURRENCY.md.

    [trace] turns on lifecycle tracing: the engine and rule manager emit
    enqueue/release/execution/commit/abort/retry/merge/shed/dead-letter
    events into the given ring buffer (export with
    {!Strip_obs.Trace.chrome_json}).  When tracing is on, every update
    task minted by {!submit_update} carries a fresh {!Strip_obs.Span}
    root context that rule firings, commits, WAL records and replica
    applies parent-link under.

    [slo] attaches a staleness-SLO monitor: each rule-transaction commit
    feeds the per-view staleness sample into it, and violation windows
    accumulate per objective (exported via registry probes
    [slo_violations_total] / [slo_windows_total]).

    [provenance] attaches a bounded derived-row provenance store: each
    rule-transaction commit records which rule firing wrote which derived
    keys from which base deltas (query with {!Strip_obs.Provenance.query}
    or the [strip-cli explain] subcommand).

    Every database also carries a {!Strip_obs.Metrics} registry (see
    {!metrics}) into which the engine, rule manager, queues and fault
    injector are wired: task counts, service/queue-wait histograms per
    class, failure counters, rule firing/merge counts, queue depths, and
    per-derived-table staleness distributions sampled at the commit of
    each rule transaction.

    The engine and the rule manager record into [stats] (default a fresh
    one); a restarted or promoted incarnation created with its
    predecessor's reports, and registers, numbers for the whole run. *)

(** {1 Component access} *)

val catalog : t -> Strip_relational.Catalog.t
val clock : t -> Strip_txn.Clock.t
val locks : t -> Strip_txn.Lock.t
val rules : t -> Rule_manager.t
val engine : t -> Strip_sim.Engine.t

val fault_injector : t -> Strip_txn.Fault.t option
(** The live injector (for injection counts), when [create] got [fault]. *)

val durable : t -> Strip_txn.Durable.t option
(** The durability layer, when [create] got [durable]. *)

val metrics : t -> Strip_obs.Metrics.t
(** The metrics registry every component registers into; snapshot it with
    {!Strip_obs.Metrics.snapshot} and export with
    {!Strip_obs.Metrics.json_of_rows} / [csv_of_rows]. *)

val recovery_work_row : Strip_sim.Stats.recovery_work -> string
(** The registry row counting one kind of recovery work over the run,
    [recovery_<kind>_total]. *)

val trace : t -> Strip_obs.Trace.t option
(** The lifecycle tracer passed to {!create}, if any. *)

val slo : t -> Strip_obs.Slo.t option
(** The staleness-SLO monitor passed to {!create}, if any. *)

val provenance : t -> Strip_obs.Provenance.t option
(** The derived-row provenance store passed to {!create}, if any. *)

val now : t -> float

(** {1 Statements} *)

val exec : t -> string -> Strip_relational.Sql_exec.exec_result
(** Execute one statement (SQL or [create rule ...]) in its own
    transaction, with rule processing at commit. *)

exception Script_error of { index : int; source : string; cause : exn }
(** Raised by {!exec_script} when a statement fails: [index] is its
    1-based position in the script, [source] the reconstructed statement
    text, [cause] the underlying exception.  The failing statement's
    transaction is already aborted; earlier statements stay committed. *)

val exec_script : t -> string -> unit
(** Execute a [;]-separated script that may interleave SQL and rule DDL.
    Each statement runs in its own transaction.
    @raise Script_error if a statement fails to parse or execute. *)

val query : t -> string -> Strip_relational.Query.result
(** Run a SELECT in its own (read-only) transaction. *)

val query_rows : t -> string -> Strip_relational.Value.t array list

val with_txn : t -> (Strip_txn.Transaction.t -> 'a) -> 'a
(** Run several statements in one transaction; commits through the rule
    manager on normal return, aborts if the callback raises.  Called
    between engine runs (a direct transaction), it first settles the
    zombie locks of tasks already dispatched ({!Strip_sim.Engine.settle});
    {!exec}, {!query} and {!checkpoint} do the same. *)

(** {1 Rules and user functions} *)

val register_function : t -> string -> Rule_manager.user_fun -> unit

val create_rule : t -> string -> unit
(** Parse and install a Figure-2 rule definition. *)

(** {1 Tasks and simulated execution} *)

val submit_update : t -> at:float -> ?label:string -> (Strip_txn.Transaction.t -> unit) -> unit
(** Enqueue an update-class task that runs [f] in a transaction (committed
    through the rule manager) when the simulated clock reaches [at]. *)

val submit_maintenance :
  t ->
  at:float ->
  ?label:string ->
  ?ctx:Strip_obs.Span.ctx ->
  (Strip_txn.Transaction.t -> unit) ->
  unit
(** Enqueue a recompute-class task that runs [f] in a transaction when
    the simulated clock reaches [at] — the shard coordinator uses this
    to apply merged cross-shard partial deltas with rule-action
    accounting.  [ctx] (honoured only when tracing is on) threads the
    shipping partial's span context through the applying transaction so
    cross-shard lineage stays connected. *)

(** {1 Background tasks}

    Periodic recomputation (paper §3) and the system's own work —
    checkpoints, scrubbing, WAL shipping, scheduled faults — run as
    background-class tasks beside rule transactions (paper §6). *)

val at : t -> label:string -> at:float -> (unit -> unit) -> unit
(** [at t ~label ~at f] enqueues one background task named [label] that
    runs [f] when the simulated clock reaches [at], outside any
    transaction.  A {!Strip_txn.Fault.Crashed} or
    {!Strip_txn.Fault.Partitioned} that [f] raises escapes out of {!run}:
    a scheduled crash or partition is an [at] task that raises one. *)

val every :
  t ->
  label:string ->
  every:float ->
  ?until:float ->
  (unit -> unit) ->
  unit
(** [every t ~label ~every f] runs [f] as a background task named
    [label] [every] seconds from now and then at each nominal time
    [at +. every] while that stays ≤ [until] (default unbounded); each
    tick is an {!at} task.  The next tick is scheduled only after [f] returns, so a
    failed and retried tick cannot schedule twice.
    @raise Invalid_argument if [every <= 0]. *)

val schedule_periodic :
  t ->
  every:float ->
  ?until:float ->
  ?label:string ->
  (Strip_txn.Transaction.t -> unit) ->
  unit
(** Periodic recomputation (paper §3: "periodic recomputation is supported
    by STRIP" — e.g. refreshing [stock_stdev] nightly): {!every} around
    [f] in its own fault-injected transaction (label default
    ["periodic"]).
    @raise Invalid_argument if [every <= 0]. *)

val run : ?until:float -> t -> unit
(** Drain the engine: release delayed tasks and execute everything
    ({!Strip_sim.Engine.run}; a horizon leaves no side effect). *)

val stats : t -> Strip_sim.Stats.t

val view_definitions : t -> (string * Strip_relational.Sql_parser.select_ast) list
(** Definitions captured from [CREATE VIEW] statements, newest last (used
    by the consistency {!Auditor}). *)

(** {1 Views} *)

val declare_view : t -> sql:string -> unit
(** Execute a [CREATE VIEW] raw (outside any transaction, as schema
    population always has) and record its definition for audits and
    checkpoints.  @raise Invalid_argument on any other statement. *)

val register_view_def : t -> sql:string -> unit
(** Record a view definition {e without} executing it — for recovery,
    where the materialized view table was already restored from the
    checkpoint image and re-running the query would be wrong. *)

val view_sql : t -> (string * string) list
(** The recorded [(name, CREATE VIEW sql)] pairs, declaration order. *)

(** {1 Durability: checkpoints and crashes} *)

val checkpoint : t -> unit
(** Take an action-consistent snapshot of all tables, view definitions and
    the queued unique transactions; install it atomically in the durable
    store; append a {!Strip_txn.Wal.Checkpoint_mark} and truncate the log
    behind the image's LSN.  Charges ["checkpoint_row"] per captured row.
    Only tables changed since this instance's previous image are
    re-encoded ({!Checkpoint.image}); the image bytes and the charge are
    those of a full capture.
    The mid-checkpoint [Crash] fault site fires between capture and
    install, so a crash there recovers from the {e previous} image.
    @raise Invalid_argument without a durability layer. *)

val schedule_checkpoints :
  t -> every:float -> ?until:float -> unit -> unit
(** Fuzzy checkpointing: run {!checkpoint} as the {!every} task
    ["checkpoint"] without stopping the feed.  Each tick runs between
    transactions by construction, giving action consistency.
    @raise Invalid_argument if [every <= 0] or without a durability
    layer. *)

val crash : t -> unit
(** Condemn all volatile state after a {!Strip_txn.Fault.Crashed} escape:
    discard the engine's queued/parked/in-flight tasks and drop unfsynced
    WAL bytes.  Durable state is untouched; pair with {!Recovery.recover}
    on a fresh database. *)
