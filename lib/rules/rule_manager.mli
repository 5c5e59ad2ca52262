(** The rule system proper (paper §2, §6.3, Appendix A).

    Responsibilities, in the order they play out for one transaction:

    + {b Event checking} — at commit, one pass over the transaction log
      finds the rules triggered per table and builds the transition
      tables.
    + {b Condition evaluation} — each triggered rule's [if] queries run in
      the triggering transaction's scope; the condition holds when every
      query returns at least one row (or there are none).  Query results
      marked [bind as] become bound tables with the §6.1 pointer layout;
      a declared [commit_time] column is stamped with the clock.
    + {b Action creation} — a task is created to run the rule's user
      function in a new transaction ("sequentially causally dependent"),
      released after the rule's delay.  For [unique] rules, the
      (function × unique-column values) hash is consulted first: if a
      not-yet-started task exists, the fresh bound-table rows are appended
      to its TCB instead (the unique-transaction merge).  [unique on]
      partitions the bound tables by the Appendix-A scheme — tables
      containing unique columns are split by key, the others are passed
      whole to every partition.
    + {b Action execution} — when the simulated CPU dispatches the task,
      the manager wraps the user function in a transaction whose
      environment is the TCB's bound-table list, removes the task's hash
      entry (new firings start a fresh batch), and commits through this
      module again, so actions can cascade. *)

type action_ctx = {
  txn : Strip_txn.Transaction.t;  (** the action transaction *)
  task : Strip_txn.Task.t;  (** the TCB (bound tables live in [txn]'s env) *)
  cat : Strip_relational.Catalog.t;
  clock : Strip_txn.Clock.t;
}

type user_fun = action_ctx -> unit
(** An application function "linked into the database" (paper §2).  Bound
    tables are readable inside [txn] under their declared names. *)

type t

exception Rule_error of string

val create :
  cat:Strip_relational.Catalog.t ->
  locks:Strip_txn.Lock.t ->
  clock:Strip_txn.Clock.t ->
  stats:Strip_sim.Stats.t ->
  ?fault:Strip_txn.Fault.t ->
  ?durable:Strip_txn.Durable.t ->
  ?trace:Strip_obs.Trace.t ->
  ?provenance:Strip_obs.Provenance.t ->
  unit ->
  t
(** Firings, created rule tasks and merges are counted in [stats].
    [fault] installs a fault injector consulted around every rule-action
    transaction (user-function entry, then pre-commit lock-conflict /
    deadlock / abort / crash sites).  [durable] wires the write-ahead log:
    every commit appends its redo images (plus unique-queue transitions)
    and fsyncs; without it no durability work happens at all, keeping
    crash-free runs byte-identical.  [trace] records unique-batch [merge]
    events and action-transaction [commit] events (with the tables
    written); when the committing task carries a {!Strip_obs.Span} context,
    rule tasks it creates get child contexts, and — with a durability layer
    — {!Strip_txn.Wal.Trace_note} records annotate the enqueue and commit
    so replicas and crash recovery can reattach the lineage.  [provenance]
    records, at each rule-action commit, which firing wrote which derived
    rows from which bound base deltas. *)

val set_current_ctx : t -> Strip_obs.Span.ctx option -> unit
(** Make [ctx] the ambient trace context for rule processing: firings
    triggered by the next commit parent-link their tasks under it, and
    the WAL commit annotation carries it.  {!Strip_core.Strip_db} sets it
    around each update-task body (rule actions set it themselves from
    their task). *)

val set_commit_hook :
  t -> (task:Strip_txn.Task.t -> tables:string list -> now:float -> unit) -> unit
(** Called after every successfully committed rule-action transaction with
    the tables it wrote and the commit's virtual time.  {!Strip_core.Strip_db}
    installs the staleness sampler here: each written (derived) table gets
    a [now - task.created_at] staleness sample. *)

val fault : t -> Strip_txn.Fault.t option

val set_submitter : t -> (Strip_txn.Task.t -> unit) -> unit
(** Where created action tasks go — normally {!Strip_sim.Engine.submit}. *)

val register_function : t -> string -> user_fun -> unit
(** Names are case-insensitive, matching the SQL side. *)

val create_rule : t -> Rule_ast.t -> unit
(** Compile and install a rule.  Validates that the table exists, that
    unique columns appear in the rule's bound tables, and that bound tables
    agree in layout with other rules executing the same function (the §2
    requirement that lets their batches merge).
    @raise Rule_error on any violation. *)

val create_rule_text : t -> string -> unit
(** Parse (Figure 2 syntax) and install. *)

val drop_rule : t -> string -> unit
(** @raise Rule_error if no such rule. *)

val rules : t -> Rule_ast.t list

val commit_txn :
  ?release:string * Strip_relational.Value.t list ->
  t ->
  Strip_txn.Transaction.t ->
  unit
(** End-of-transaction protocol: event checking and rule processing, then
    commit, then — with a durability layer — WAL append of the redo images
    and an fsync (the crash site ["wal_flush"] sits between the in-memory
    commit and the flush), then release of the pre-image pins.  [release]
    is the (func, unique key) whose durable queue slot this commit
    retires; {!run_action} passes it for unique transactions. *)

val registry : t -> Unique.t
(** The unique-transaction hash (exposed for tests and stats). *)

val reregister_task : t -> Strip_txn.Task.t -> unit
(** Put a retried unique transaction back in the registry (no-op for
    non-unique tasks).  {!Strip_core.Strip_db} installs this as the
    engine's requeue hook so batching survives failure: firings that occur
    during the task's backoff merge into its preserved bound tables. *)

val log_shed :
  t -> victim:Strip_txn.Task.t -> into:Strip_txn.Task.t option -> unit
(** Engine shed hook: with a durability layer, log a coalesced victim's
    rows as a merge into [into]'s queue slot (plus the victim's release)
    {e before} the rows change hands.  Plain drops log nothing — the
    victim's durable enqueue survives, so replay after a crash restores
    the shed work instead of losing it. *)

(** {1 Cross-shard partial deltas}

    Hooks for the sharded write path ({!Strip_shard}).  A routed rule
    action whose composite target row lives on another shard calls
    {!emit_partial} instead of updating locally; the buffered partials
    are stamped with ship sequence numbers, from 1 per destination
    shard, at commit, logged as
    {!Strip_txn.Wal.Shard_out} records in the {e same append batch} as
    the commit (so a partial is durable exactly when the commit that
    produced it is), and handed to the registered sink after the fsync.
    With no sink registered and nothing emitted, all of this is inert —
    single-primary runs stay byte-identical. *)

val set_partial_sink :
  t ->
  (seq:int ->
  dst:int ->
  key:Strip_relational.Value.t list ->
  delta:float ->
  created_at:float ->
  ctx:Strip_obs.Span.ctx option ->
  unit) ->
  unit
(** Where durable partials go — the shard coordinator's outbox.  Called
    once per partial, after the emitting commit's fsync, with the
    emitting transaction's trace context (for ship-path span
    propagation). *)

val emit_partial :
  t -> dst:int -> key:Strip_relational.Value.t list -> delta:float -> unit
(** Buffer a weighted partial delta for composite row [key] owned by
    shard [dst]; flushed (stamped, logged, shipped) by the enclosing
    commit, discarded if it aborts. *)

val note_shard_release : t -> key:Strip_relational.Value.t list -> unit
(** Record that the running action applies the merged partials for
    [key]: a {!Strip_txn.Wal.Shard_release} rides the applying commit's
    append batch, making apply + release atomic. *)

val set_release_sink :
  t -> (key:Strip_relational.Value.t list -> unit) -> unit
(** Called once per released key after the applying commit's fsync — the
    shard coordinator removes the key's merged entry from its
    distributed queue here, so removal happens only when the release is
    durable (aborts never reach it and the entry survives for a clean
    re-apply). *)

val clear_partials : t -> unit
(** Drop buffered partials and releases (abort paths call this). *)

val partial_seqs : t -> (int * int) list
(** [(dst, seq)], ascending [dst]: the highest ship sequence number
    stamped towards each shard [dst] sent any (the number sent it). *)

val set_partial_seqs : t -> (int * int) list -> unit
(** Restore the counters of the given [(dst, seq)]s after crash recovery
    (the highest seqs logged), so the next partial to each [dst]
    continues its owner's watermark. *)

(** {1 Crash recovery} *)

val bound_schemas_for :
  t -> func:string -> (string * Strip_relational.Schema.t) list option
(** Declared bound-table layouts of the rules executing [func]
    (case-insensitive), if any rule does. *)

val resubmit_recovered :
  t ->
  ctx:Strip_obs.Span.ctx option ->
  func:string ->
  key:Strip_relational.Value.t list ->
  release_time:float ->
  created_at:float ->
  bound:(string * Strip_relational.Value.t array list) list ->
  unit
(** Recreate a queued unique transaction from its logged image: rebuild
    fully-materialized bound tables against the rule's declared schemas,
    register the task in the unique hash and submit it.  [ctx] reattaches
    the batch's pre-crash trace context (recovered from its
    {!Strip_txn.Wal.Trace_note}), so the post-restart span tree stays
    linked to the original base write.
    @raise Rule_error if no installed rule executes [func]. *)

(** {1 Statistics}

    Read from, and reset in, the [stats] given to {!create}. *)

val n_rule_firings : t -> int
(** Rule activations whose condition evaluated to true. *)

val n_tasks_created : t -> int
val n_merges : t -> int
(** Firings absorbed into an already-queued unique transaction. *)

val reset_stats : t -> unit
(** Zero the three counters above ({!Strip_sim.Stats.reset_rule_counters}). *)
