(** Discrete-event simulation engine.

    Mirrors STRIP's task flow (paper Figure 15) across [servers] logical
    executors (STRIP dispatched transactions to a pool of executor
    processes): tasks with future release times wait in the delay queue
    (the event heap), released tasks enter the ready queue, and each ready
    task is dispatched to the earliest-free server — updates before
    recomputes, the scheduling policy ordering each class — so service
    windows overlap in simulated time.

    Every task body is {e really executed} against the database when
    dispatched; the engine converts the {!Strip_relational.Meter} counter
    delta of that execution into simulated service time through the
    {!Cost_model}.  The only approximation versus a preemptive system is
    that preemption is charged, not interleaved: a recompute transaction
    pays one context switch per update that arrives during its service
    window (the §5.2 observation that "longer running transactions ... seem
    to be preempted more often").

    With a lock manager wired ([locks]), concurrency is arbitrated for
    real: a committing transaction's locks are released {e deferred} —
    held as zombies until the completion event at the task's simulated
    finish instant — so a later-dispatched overlapping task that conflicts
    observes [Blocked], aborts its partial attempt (undo for real), and
    parks on the engine's wait queue without being charged.  Waiters wake
    FIFO by task id when the blocking holder's completion flushes; a wait
    exceeding [lock_timeout_s] is presumed deadlocked and routed to the
    retry/backoff path instead.  With one server the completion of task
    [k] is always processed before task [k+1] dispatches, so locks never
    collide and behavior is identical to the historical serial engine.

    Virtual time during a body's execution is the dispatch instant; service
    time is added when the body finishes.  Update transactions are 2-3
    orders of magnitude shorter than rule delay windows, so the error this
    introduces in commit timestamps is negligible (see DESIGN.md and
    docs/CONCURRENCY.md). *)

type retry = {
  max_attempts : int;  (** total attempts (first run + retries) per task *)
  base_backoff_s : float;  (** backoff after the first failure *)
  max_backoff_s : float;  (** exponential backoff cap *)
}
(** Retry policy for failed tasks.  A task whose body raises is re-enqueued
    with its bound tables intact after [min(max, base * 2^(attempt-1))]
    seconds of backoff; once [max_attempts] attempts have failed it is
    moved to the dead-letter list instead. *)

val default_retry : retry
(** 5 attempts, 50 ms base backoff, 2 s cap. *)

type shed_policy =
  | Drop  (** cancel the victim, retiring its bound tables *)
  | Coalesce
      (** first try to fold the victim's bound rows into the task being
          submitted (same user function and bound-table names); drop
          otherwise *)

type overload = {
  high_watermark : int;
      (** max live pending rule ([Recompute]) tasks *)
  shed_policy : shed_policy;
}
(** Overload control: when a submitted rule task pushes the backlog past
    the watermark, delayed rule tasks are shed — expired deadlines first, then
    lowest value, then stalest — so the engine keeps serving updates
    (the paper's soft-real-time degradation).  Updates and background
    tasks (checkpoints, scheduled faults, the scrubber) are neither
    counted nor shed.  Every shed is recorded in {!Stats} and ticks
    ["task_shed"]. *)

type t

val create :
  clock:Strip_txn.Clock.t ->
  ?policy:Strip_txn.Queues.policy ->
  ?cost:Cost_model.t ->
  ?retry:retry ->
  ?overload:overload ->
  ?locks:Strip_txn.Lock.t ->
  ?servers:int ->
  ?lock_timeout_s:float ->
  ?trace:Strip_obs.Trace.t ->
  ?stats:Stats.t ->
  unit ->
  t
(** Without [retry], a task failure discards the task and re-raises (the
    historical fail-fast contract); without [overload], nothing is shed.
    Without [locks], commits release immediately and nothing ever parks
    (the standalone-engine contract).  [servers] (default 1) sets the
    executor count; [lock_timeout_s] (default 5 s) bounds a task's total
    lock wait before it is presumed deadlocked and retried.  With [trace],
    every task lifecycle step — [enqueue], [release], the execution span,
    [abort], [retry], [shed], [dead_letter], [lock_wait], [wake],
    [lock_timeout] — is emitted into the ring buffer, stamped with
    simulated time.  The engine records into [stats] (default a fresh
    one for [servers]), which a restarted database hands from one engine
    to the next.
    @raise Invalid_argument if [servers < 1]. *)

val clock : t -> Strip_txn.Clock.t
val cost_model : t -> Cost_model.t
val stats : t -> Stats.t

val num_servers : t -> int

val parked_count : t -> int
(** Tasks currently parked on a lock wait. *)

val trace : t -> Strip_obs.Trace.t option
(** The tracer passed to {!create}, if any. *)

val dead_letters : t -> Strip_txn.Task.t list
(** Tasks whose retry budget was exhausted, oldest first.  Their bound
    tables are retired but the TCBs remain inspectable (id, function,
    unique key, attempts). *)

val set_requeue_hook : t -> (Strip_txn.Task.t -> unit) -> unit
(** Called just before a failed task is re-enqueued for retry — the rule
    manager uses it to re-register unique transactions so merges continue
    while the task waits out its backoff. *)

val set_fatal_filter : t -> (exn -> bool) -> unit
(** Exceptions matching the filter are never retried: the task is
    discarded and the exception propagates (used for programming errors
    such as unregistered user functions).  A {!Strip_txn.Fault.Crashed}
    or [Partitioned] escape always propagates this way, and unlike a
    failed transaction it is not counted or traced as an abort. *)

val set_shed_hook :
  t -> (victim:Strip_txn.Task.t -> into:Strip_txn.Task.t option -> unit) -> unit
(** Called for every shed victim {e before} its bound rows are coalesced
    or dropped; [into] is the task absorbing the rows under the [Coalesce]
    policy (None for a plain drop).  The durability layer uses this to log
    the queue transition while the victim's TCB is still intact. *)

val backlog : t -> int
(** Live pending rule ([Recompute]) tasks across the delay queue,
    the ready queue and the lock-wait parking lot — the quantity compared
    against the overload watermark. *)

val submit : t -> Strip_txn.Task.t -> unit
(** Enter a task into the system at its [release_time]: future releases go
    to the delay queue, due ones to the ready queue. *)

val set_arrival_profile : t -> float array -> unit
(** Sorted times of all update arrivals, used to charge context switches to
    long recompute transactions. *)

val pending : t -> int
(** Tasks in the delay queue, the ready queue, and parked on locks. *)

val ready_length : t -> int
(** Live tasks in the ready queue (cancelled entries excluded). *)

val delayed_length : t -> int
(** Tasks in the delay queue awaiting release. *)

val run : ?until:float -> t -> unit
(** Drain the system: process releases, completions and dispatches in
    event order until everything is empty (or the next timed event lies
    beyond [until]).  A horizon has no side effect: completions due past
    it stay queued, their zombie locks held, for the next [run], so
    [run ~until:a; run ~until:b] is exactly [run ~until:b]. *)

val settle : t -> unit
(** Flush the zombie locks of every queued completion and wake their
    waiters, without advancing the clock.  A direct transaction or
    checkpoint made between [run]s calls it first: it happens after
    every dispatched body, so it must not collide with their holders.
    A no-op while a task body executes. *)

val discard_all : t -> unit
(** Crash semantics: discard every delayed, ready, parked and in-flight
    task, retiring their bound tables, and reset all volatile scheduling
    state (parking lot, inflight map, backlog, dispatch history).  Parked
    waiters are drained explicitly so none leak as zombies across a
    restart; the dead-letter list and cumulative stats survive (they
    describe the pre-crash epoch). *)
