(** Run statistics collected by the simulation engine.

    Everything the paper's figures need: CPU busy time split by task class
    (utilization, Figures 9/12), recomputation counts (Figures 10/13) and
    recompute service-time moments (Figures 11/14) — plus, for the Section
    7/8 curves, log-bucketed latency histograms (service time, queue wait,
    recovery) and per-derived-table {e staleness} distributions sampled at
    commit time of each rule transaction.

    Every accessor is total: with no samples recorded (or a zero duration)
    the means, percentiles and utilization return 0.0, never NaN or
    infinity, so downstream report arithmetic stays finite. *)

type t

val create : ?servers:int -> unit -> t
(** [servers] (default 1) sizes the per-server busy/task accounting the
    multi-server engine fills in.  One [t] may outlive an engine: every
    incarnation of a crashed, restarted or promoted primary records into
    its predecessor's, so its numbers cover the whole run. *)

val record_task :
  ?server:int ->
  t ->
  klass:Strip_txn.Task.klass ->
  service_us:float ->
  queue_us:float ->
  unit
(** [server] (default 0) attributes the service time to that executor's
    busy counter; out-of-range indices only skip the per-server
    attribution. *)

val record_context_switches : t -> int -> unit

(** {1 Lock arbitration}

    Filled in by the multi-server engine: a {e lock wait} is one
    park → wake episode of a task blocked on a conflicting holder; a
    {e lock timeout} is a wait that exceeded the presumed-deadlock
    timeout and was routed to the retry path instead. *)

val record_lock_wait : t -> seconds:float -> unit
val record_lock_timeout : t -> unit
val n_lock_waits : t -> int
val n_lock_timeouts : t -> int

val lock_wait_hist : t -> Strip_obs.Histogram.t
(** Park → wake wait distribution, in seconds. *)

(** {1 Per-server accounting} *)

val num_servers : t -> int

val server_busy_us : t -> int -> float
(** Busy µs of server [i]; raises on out-of-range [i]. *)

val server_tasks : t -> int -> int

val per_server_utilization : t -> duration_s:float -> float list
(** Busy fraction of each server over [duration_s]; all zeros when
    [duration_s <= 0]. *)

(** {1 Failure accounting}

    Populated by the engine's retry/overload machinery and by the bench's
    fault-injection scenarios: failed attempts (aborts), re-enqueues
    (retries), overload sheds, exhausted tasks (dead letters), and the
    latency from a task's first failure to its eventual success. *)

val record_injected : t -> unit
(** One fault injected by the database's {!Strip_txn.Fault} injector. *)

val record_abort : t -> unit
val record_retry : t -> unit

val record_shed : t -> coalesced:bool -> unit
(** A task shed by overload control; [coalesced] when its bound rows were
    merged into a surviving task rather than dropped. *)

val record_dead_letter : t -> unit
val record_recovery : t -> latency_s:float -> unit

val n_injected : t -> int
val n_aborts : t -> int
val n_retries : t -> int
val n_sheds : t -> int
val n_coalesced : t -> int
val n_dead_letters : t -> int
val n_recoveries : t -> int

val mean_recovery_s : t -> float
(** Mean first-failure→success latency (0 if no recoveries). *)


val recovery_hist : t -> Strip_obs.Histogram.t
(** Recovery-latency distribution, in seconds. *)

(** {1 Crash restarts}

    Filled in by the crash-recovery driver: one count per hard crash
    ({!Strip_txn.Fault.Crashed}), a crash during recovery included, and
    one sample per outage, measuring the simulated time from the crash
    instant to the restarted engine accepting work again. *)

val record_crash : t -> unit
val n_crashes : t -> int

val record_restart : t -> recovery_s:float -> unit
(** One outage's downtime, however many crashes it took to end it. *)

val crash_recovery_hist : t -> Strip_obs.Histogram.t
(** Crash → engine-back-up restart-latency distribution, in seconds. *)

val record_failover : t -> unit
(** A crash resolved by promoting a replica rather than restarting in
    place (replication subsystem). *)

val n_failovers : t -> int

(** {1 Recovery work}

    What crash recovery and the end-of-run audit did for this primary,
    summed over the run by kind: [Requeued] counts unique transactions
    rebuilt, [Cp_fallbacks] CRC-failing checkpoint slots passed over and
    [Repairs] audit repair transactions. *)

type recovery_work =
  | Restored_rows | Redo_commits | Redo_ops | Requeued | Cp_fallbacks
  | Salvaged_ranges | Salvaged_bytes | Quarantined_bytes | Orphan_merges
  | Repairs

val recovery_work_kinds : recovery_work list

val recovery_work_name : recovery_work -> string
(** ["restored_rows"], ["redo_commits"], ...: the report's field name and
    the [<name>] of the registry row [recovery_<name>_total]. *)

val add_recovery_work : t -> recovery_work -> int -> unit
val recovery_work : t -> recovery_work -> int

(** {1 Rule firing}

    Rule activations whose condition held, the rule tasks created, and
    the firings merged into an already-queued unique transaction. *)

val record_firing : t -> unit
val record_rule_task : t -> unit
val record_merge : t -> unit
val n_firings : t -> int
val n_rule_tasks : t -> int
val n_merges : t -> int

val reset_rule_counters : t -> unit
(** Zero the three rule counters, leaving every other statistic. *)

(** {1 Staleness}

    The paper's Section 7 metric: how out of date a derived table is when
    a maintenance transaction finally commits.  Each sample is [commit
    time - first firing time] of the committing rule transaction — the age
    of the oldest base-data change the commit folds in (merged firings are
    younger).  Sampled by the rule layer at commit of every recompute /
    background transaction, keyed by the table(s) the transaction wrote. *)

val record_staleness : t -> table:string -> seconds:float -> unit

val staleness_tables : t -> string list
(** Tables with at least one staleness sample, sorted. *)

val staleness_of : t -> string -> Strip_obs.Histogram.t option
val staleness_hist : t -> string -> Strip_obs.Histogram.t
(** Like {!staleness_of} but creates an empty histogram on first use. *)

(** {1 Task-class statistics} *)

val busy_us : t -> float
(** Total simulated CPU time consumed. *)

val busy_us_of : t -> Strip_txn.Task.klass -> float

val tasks_run : t -> Strip_txn.Task.klass -> int

val n_recompute : t -> int
(** Recompute transactions executed — the paper's N_r. *)

val mean_service_us : t -> Strip_txn.Task.klass -> float
(** Mean service time (queueing excluded, as in Figure 11). *)

val max_service_us : t -> Strip_txn.Task.klass -> float

val mean_queue_us : t -> Strip_txn.Task.klass -> float

val service_hist : t -> Strip_txn.Task.klass -> Strip_obs.Histogram.t
(** Service-time distribution (µs). *)

val queue_hist : t -> Strip_txn.Task.klass -> Strip_obs.Histogram.t
(** Queue-wait distribution (µs, release to dispatch). *)

val service_percentile_us : t -> Strip_txn.Task.klass -> float -> float
(** [service_percentile_us t klass p] for [p] in [0,100]; 0.0 when no
    samples. *)

val queue_percentile_us : t -> Strip_txn.Task.klass -> float -> float

val context_switches : t -> int

val utilization : t -> duration_s:float -> float
(** busy / duration; 0.0 when [duration_s <= 0]. *)
