(** One experiment = one curve point of Figures 9-14.

    Builds a fresh STRIP instance, populates the PTA tables, installs one
    maintenance rule variant, replays a quote trace through the simulator,
    and reports the paper's metrics: CPU utilization, the number of
    recomputation transactions N_r, and recompute transaction lengths.
    Optionally verifies that the maintained views match a from-scratch
    recomputation — every run is a correctness test as well as a
    measurement. *)

type rule_choice =
  | Comp_view of Comp_rules.variant
  | Option_view of Option_rules.variant

type recovery_cfg = {
  checkpoint_every : float option;
      (** fuzzy-checkpoint period in simulated seconds; [None] takes only
          the initial post-population checkpoint, so recovery redoes the
          whole log *)
  crash_at : float option;
      (** schedule one deterministic crash at this simulated time *)
}

val default_recovery : recovery_cfg
(** 5 s checkpoints, no scheduled crash.  After 8 crashes and partitions
    the crash and partition {e rates} are zeroed, so a hostile seed
    cannot prevent convergence. *)

type repl_cfg = {
  replicas : int;  (** read replicas fed by WAL log shipping *)
  read_policy : Strip_repl.Cluster.read_policy;
  read_rate : float;  (** read-only queries per simulated second *)
  read_cost_s : float;
      (** fixed per-read service overhead on top of the metered execution
          cost *)
  link : Strip_repl.Link.config;  (** shipping-link latency/bandwidth/drops *)
}

val default_repl : repl_cfg
(** 1 replica, default link, policy [Any], no reads; segments ship every
    {!Strip_repl.Cluster.ship_every}.  A
    primary partitioned for more than 100 ms is declared down and the
    cluster elects over the cut; a shorter partition is a blip — sends
    drop for the window but nobody fails over. *)

type storage_cfg = {
  scrub_every : float option;
      (** background-scrubber period in simulated seconds; [None] runs no
          scrubber, so at-rest faults are only found when something reads
          the bytes (the configuration the planted-bug hunt uses) *)
  retain : int;
      (** checkpoint slots kept (≥ 1); extra slots let recovery fall back
          past a CRC-failing image instead of refusing *)
}

val default_storage : storage_cfg
(** 0.5 s scrub period, 2 retained checkpoint slots. *)

type shard_cfg = {
  shards : int;  (** shard primaries; [1] is the unsharded path *)
  shard_link : Strip_repl.Link.config;
      (** shard-to-shard link model for partial/ack traffic *)
  shard_crash_at : (int * float) option;
      (** schedule one deterministic crash of shard [fst] at time [snd];
          the shard restarts in place from its own WAL + checkpoint *)
}

val default_shard : shards:int -> shard_cfg
(** Default link, no scheduled crash.  The coordinator ticks every
    50 ms, re-ships partials unacked for 250 ms and checkpoints every
    shard every 5 s, so every log truncation is followed by a
    protocol-state snapshot. *)

(** One deterministic fault in a chaos schedule, in absolute simulated
    seconds.  Crashes and partitions are armed as scheduled engine tasks
    and re-armed on whatever instance is live after each escape; drop
    bursts are installed on the shipping links at cluster creation;
    checkpoint events force an extra checkpoint to race the surrounding
    faults. *)
type chaos_event =
  | Crash_at of float
  | Partition_at of { at : float; heal_after_s : float }
  | Drop_burst of { at : float; until_s : float; rate : float }
  | Checkpoint_at of float
  | Bitrot_at of { at : float; target : [ `Wal | `Checkpoint ]; frac : float }
      (** flip one at-rest byte at fraction [frac] of the durable WAL
          (respectively the newest checkpoint image) *)
  | Fsync_lie_at of float
      (** the next fsync acknowledges its pending bytes but silently
          writes zeros — a mid-log gap discovered only when read *)
  | Disk_full_at of { at : float; free_bytes : int; heal_after_s : float }
      (** clamp WAL capacity to [free_bytes] headroom at [at]; appends
          past it raise typed backpressure until the heal *)

val chaos_event_time : chaos_event -> float
(** The instant the event fires (a burst's opening edge). *)

val is_storage_event : chaos_event -> bool
(** True for the at-rest media events ([Bitrot_at] / [Fsync_lie_at] /
    [Disk_full_at]). *)

type config = {
  rule : rule_choice;
  delay : float;
  feed : Strip_market.Feed.config;
  sizes : Pta_tables.sizes;
  cost : Strip_sim.Cost_model.t;
  verify : bool;
  servers : int;
      (** engine executor count (default 1); overlapping service windows
          are arbitrated by the lock manager *)
  lock_timeout_s : float;
      (** simulated seconds a task may spend blocked (measured from its
          first blocked attempt) before the engine presumes deadlock and
          routes it to the retry path (default 5.0) *)
  fault : Strip_txn.Fault.config option;
      (** inject transaction failures at the configured rates *)
  retry : Strip_sim.Engine.retry option;
      (** recover failed tasks with bounded exponential backoff *)
  overload : Strip_sim.Engine.overload option;
      (** shed delayed rule tasks past the watermark *)
  trace : Strip_obs.Trace.t option;
      (** record task/transaction lifecycle events into this ring buffer;
          with a replicated run, per-replica buffers are created too and
          returned in [cluster_traces] for a merged cluster export *)
  slo : Strip_obs.Slo.t option;
      (** staleness SLO monitor; observed at every maintenance commit,
          reported per view in [slo].  [None] reports nothing. *)
  provenance : Strip_obs.Provenance.t option;
      (** derived-row provenance store; each maintenance commit records
          the base deltas and rule firing behind the derived values it
          wrote.  [None] records nothing. *)
  recovery : recovery_cfg option;
      (** enable the durability layer (WAL + checkpoints), drive the run
          through the crash-restart loop, and audit/repair derived data at
          the end.  [None] (the default) performs no durability work at
          all — output is byte-identical to builds without the
          subsystem. *)
  repl : repl_cfg option;
      (** attach a replication cluster: WAL log shipping to [replicas]
          read replicas plus a policy-routed read pump.  [None] (the
          default) creates no cluster and leaves the run byte-identical
          to non-replicated builds.  [replicas > 0] implies
          {!default_recovery} when [recovery] is [None], and a primary
          crash is resolved by deterministic failover promotion instead
          of restart-in-place. *)
  storage : storage_cfg option;
      (** arm the storage-fault substrate: media-fault ledger, background
          scrubber, retained checkpoint slots, ship-time verification.
          [None] (the default) leaves every run byte-identical to builds
          without the subsystem; a chaos schedule containing storage
          events implies {!default_storage}. *)
  chaos : chaos_event list;
      (** deterministic fault schedule (from {!Strip_chaos} or hand
          written).  [[]] (the default) arms nothing and leaves the run
          byte-identical to chaos-free builds; a non-empty schedule
          implies {!default_recovery} when [recovery] is [None]. *)
  shard : shard_cfg option;
      (** partition the write path across [shards] primaries under the
          {!Strip_shard.Coordinator} partial-delta protocol; one shard is
          allowed (the shard sweep's baseline point).  A sharded run is
          always durable (it implies {!default_recovery} when [recovery]
          is [None]) and ignores [repl] and [chaos].  [None] (the
          default) runs one primary. *)
}

val default_config : rule_choice -> delay:float -> config
(** Paper-scale feed and sizes, default cost model, verification on, no
    fault injection / retry / overload control, no tracing. *)

val with_faults :
  ?seed:int -> ?retry:Strip_sim.Engine.retry -> abort_rate:float -> config -> config
(** Enable pre-commit abort injection at [abort_rate] on every task
    transaction, with retry (default {!Strip_sim.Engine.default_retry})
    so the run still converges. *)

val quick : config -> float -> config
(** Scale the workload (duration, update count, composites, options) by a
    factor for fast runs. *)

type recovery_metrics = {
  n_crashes : int;
      (** every crash, one during recovery included, summed over the
          primaries *)
  n_checkpoints : int;
      (** images installed (initial + periodic + post-recovery), summed
          over the primaries; a promoted replica's store continues its
          deposed primary's count and the bootstrap image it was seeded
          with is not one *)
  wal_appended_bytes : int;  (** likewise continued across failovers *)
  wal_overhead_s : float;
      (** simulated CPU charged to WAL appends and fsyncs — this cost is
          inside the makespan, reported here rather than silently added *)
  checkpoint_overhead_s : float;  (** same, for checkpoint row capture *)
  redo_commits : int;  (** log records replayed, summed over crashes *)
  redo_ops : int;
  requeued : int;  (** unique transactions rebuilt into the queue *)
  restored_rows : int;
  total_recovery_s : float;  (** simulated downtime charged to recovery *)
  audit_clean : bool;  (** final consistency audit (after any repairs) *)
  audit_divergences : int;  (** divergent keys remaining at the end *)
}

type replica_metrics = {
  r_id : int;
  r_applied_lsn : int;  (** contiguous applied frontier at end of run *)
}

type repl_metrics = {
  read_policy : string;
  read_rate : float;
  n_reads : int;
  reads_primary : int;  (** reads routed to (or falling through to) the primary *)
  reads_replica : int;
  read_latency : Strip_obs.Histogram.summary option;
      (** queueing + service per read, seconds *)
  read_throughput_per_s : float;
      (** reads over the span to the latest read completion — the
          quantity the replica sweep improves *)
  n_failovers : int;
  promotion_lost_bytes : int;
      (** durable primary bytes that never reached any elected replica *)
  epoch : int;  (** final primary term (1 = no election ever ran) *)
  epochs : (int * int) list;
      (** [(epoch, primary id)] in opening order; id -1 is the founding
          primary (a restart in place opens no epoch) *)
  promotions : (int * int * int) list;
      (** every promotion as [(epoch, promoted replica id, promoted lsn)] in
          order — the acked frontier each election preserved *)
  final_lsn : int;  (** primary durable log end at end of run *)
  fenced_bytes : int;
      (** bytes deposed primaries discarded from their divergent tails
          when their partitions healed *)
  n_partitions : int;  (** partition windows the cluster lived through *)
  segments_sent : int;
  segments_dropped : int;
  bytes_shipped : int;
  per_replica : replica_metrics list;
}

type storage_metrics = {
  injected_bitrot_wal : int;  (** at-rest WAL byte flips injected *)
  injected_bitrot_cp : int;  (** checkpoint-image byte flips injected *)
  injected_fsync_lie : int;  (** lying fsyncs (acked bytes zeroed) *)
  faults_detected : int;
      (** noticed (scrub / ship verify / recovery) but not yet fixed *)
  faults_repaired : int;  (** clean bytes restored in place *)
  faults_quarantined : int;  (** corrupt ranges dropped, never served *)
  faults_expunged : int;
      (** left the system unread (truncated behind a checkpoint, or the
          whole store was abandoned at failover) *)
  faults_outstanding : int;
      (** injected and never noticed — any nonzero value is silent
          corruption, and the [no_silent_corruption] chaos invariant
          fails the run *)
  faults_late : int;
      (** faults that stayed [Outstanding] for more than
          [ceil (retained bytes / Scrub.budget) + 1] scrub passes after
          their injection while their bytes were still retained — the
          [detected_within_bound] chaos invariant *)
  scrub_bytes : int;  (** durable WAL bytes re-read and re-verified *)
  repaired_replica : int;  (** ranges healed by replica re-fetch *)
  repaired_checkpoint : int;  (** repairs via emergency checkpoint *)
  scrub_salvaged_bytes : int;  (** bytes spliced back from replicas *)
  scrub_expunged_bytes : int;
      (** log bytes whose redo capability the checkpoint rung destroyed
          (the whole truncated span, not just the rotten ranges) *)
  disk_fulls : int;  (** appends refused by the capacity clamp *)
  lied_bytes : int;  (** acked bytes silently zeroed by lying fsyncs *)
  ship_verify_skips : int;
      (** outgoing segments cut at a corrupt frame by ship-time
          verification (rot never propagates to replicas) *)
  salvage_s : float;
      (** modeled seconds charged to scrubbing, salvage and quarantine *)
  final_clean : bool;
      (** end of run: the durable WAL frame chain verifies end-to-end and
          every retained checkpoint slot passes its CRC — the
          [salvage_converges] chaos invariant *)
}

(** One shard primary's partial-delta queue. *)
type shard_row = {
  sh_offered : int;  (** arrivals offered to this shard's queue *)
  sh_duplicates : int;  (** resends the [(src, seq)] dedup collapsed *)
  sh_merged : int;  (** arrivals folded into a pending entry *)
}

type shard_metrics = {
  n_shards : int;
  sh_rows : shard_row list;
  sh_msgs : int;  (** shard-to-shard messages sent (partials + acks) *)
  sh_bytes : int;
  sh_partials : int;  (** first ships *)
  sh_acks : int;
  sh_reships : int;  (** resends past the ack deadline *)
  cross_checks : int;
      (** composites compared by the cross-shard audit (recomputed from
          all shards' base tables against the owners' maintained rows) *)
  cross_divergences : int;  (** comparisons beyond tolerance *)
}

(** One run's report: the fields some code other than {!Report} reads,
    plus the [registry] snapshot that holds every other count.  Every
    primary records into one {!Strip_sim.Stats.t} for the whole run — a
    restarted, promoted, retried or split-brain incarnation continues its
    predecessor's — and a promoted replica's durable store continues the
    deposed primary's WAL and checkpoint counts, so the counts below
    cover the whole run, crashes, failovers and elections included.  The
    exceptions are gauges, which describe the end of the run (final
    LSNs; in [registry], the last checkpoint's size and the queue
    lengths), and a deposed primary's appends after the election that
    replaced it, which its fenced tail discards.  A sharded run sums its
    counts over the shard primaries. *)
type metrics = {
  label : string;
  delay : float;
  duration_s : float;
  servers : int;
  makespan_s : float;
      (** simulated instant the last task finished (includes any backlog
          drained after the feed ends) *)
  recompute_throughput_per_s : float;
      (** n_recompute / makespan — the quantity the server sweep improves *)
  per_server_utilization : float list;
      (** busy fraction of each executor over the makespan (unlike
          [utilization], the paper's offered-load cpu%, which is
          normalized by the feed duration and can exceed 100% under
          overload) *)
  n_lock_waits : int;  (** park → wake episodes on lock conflicts *)
  n_lock_timeouts : int;  (** waits presumed deadlocked and retried *)
  lock_wait_s : Strip_obs.Histogram.summary option;
      (** park → wake wait distribution (seconds), so its count is
          [n_lock_waits]; [None] when no task ever waited *)
  utilization : float;
      (** fraction of the simulated CPU consumed over the feed duration,
          averaged over the primaries: [utilization × duration_s] is the
          busy time of every task class per primary *)
  n_updates : int;
  n_recompute : int;  (** the paper's N_r *)
  mean_recompute_us : float;
  p50_recompute_us : float;
  p90_recompute_us : float;
  p99_recompute_us : float;
  max_recompute_us : float;
  busy_update_s : float;
  busy_recompute_s : float;
  n_firings : int;
  n_merges : int;
  context_switches : int;
  expected_fanout : float;
      (** E[derived rows touched per update] for the chosen view *)
  verified : bool option;  (** [None] when verification was off *)
  max_abs_error : float;
  n_aborts : int;  (** task transactions that failed *)
  n_retries : int;  (** failed tasks re-enqueued with backoff *)
  n_sheds : int;  (** tasks shed by overload control *)
  n_dead_letters : int;  (** tasks whose retry budget ran out *)
  staleness : (string * Strip_obs.Histogram.summary) list;
      (** per-derived-table staleness distribution (seconds), sampled at
          the commit of each maintenance transaction; sorted by table *)
  registry : Strip_obs.Metrics.row list;
      (** full metrics-registry snapshot of the live primary (every
          shard's, labelled [shard], in a sharded run) taken after the run
          drained; its probes read the same stats, so e.g.
          [tasks_total{class=recompute}] is [n_recompute] and
          [crashes_total] is [recovery.n_crashes].  {!Report.count} reads
          the counts that have no field here. *)
  recovery : recovery_metrics option;
      (** present iff the run had a [recovery] config (explicit or
          implied) *)
  repl : repl_metrics option;
      (** present iff the run had a [repl] config; cluster-owned counters
          survive failover epochs. *)
  storage : storage_metrics option;
      (** present iff the run had a [storage] config (explicit or implied
          by storage chaos events); the fault ledger is unioned over
          every durable store the run touched, including stores abandoned
          at failover. *)
  shard : shard_metrics option;
      (** present iff the config had a [shard] config; count fields
          elsewhere in this record then sum over all shard primaries,
          service percentiles come from the busiest shard, and staleness
          merges every shard's. *)
  slo : Strip_obs.Slo.view_report list;
      (** per-view staleness SLO verdicts; empty unless the run had an
          [slo] config *)
  trace_spans : (string * int * int) list;
      (** [(node, buffered, dropped)] per traced span buffer, primary
          first; empty unless tracing was on *)
  cluster_traces : (string * Strip_obs.Trace.t) list;
      (** per-node span buffers for a merged cluster export
          ({!Strip_obs.Trace.merge_chrome_json}), primary first; empty
          unless the run was both traced and replicated *)
}

val run : config -> metrics
(** Run one experiment on the topology the config resolves to: one
    primary, or [shard.shards] primaries under the coordinator.
    Replicas, a chaos schedule or sharding imply {!default_recovery};
    storage-fault chaos events imply {!default_storage}.  Setup, the
    drive loop, the crash budget, the audit and the metrics assembly are
    the same for every topology; a single primary is the one-element
    case of the sharded fold.  The one drive loop advances every primary
    from horizon to horizon (the next read, the next coordinator tick,
    or the end of the run), and sends every crash or partition to one
    handler: failover when a cluster has replicas, restart in place
    otherwise.
    @raise Invalid_argument with [shard.shards < 1] or a
    [shard_crash_at] shard id out of range.
    @raise Failure if a sharded run is not quiescent 10,000 coordinator
    ticks past the feed, naming the unacked partials and their shards. *)

val verify_tolerance : rule_choice -> float
(** Comparison tolerance: composites accumulate float increments;
    options are recomputed exactly. *)

val label_of : rule_choice -> string

val max_error : (string * float) list -> (string * float) list -> float
(** Worst absolute difference between two sorted [(name, value)]
    association lists; [infinity] on a key or cardinality mismatch. *)

val mk_db :
  ?now:float ->
  ?durable:Strip_txn.Durable.t ->
  ?fault:Strip_txn.Fault.config ->
  ?stats:Strip_sim.Stats.t ->
  config ->
  Strip_core.Strip_db.t
(** One database instance wired per the config (cost model, servers,
    fault injector, observability); {!run} calls it for every
    incarnation against the same durable store, handing each one its
    predecessor's [stats]. *)
