(** Tabular and JSON output for the figure-reproduction harness.

    A report renders the typed fields of {!Experiment.metrics} and, for
    every count nothing else reads, the run's metrics-registry snapshot
    ([registry]) through {!count}.  Adding such a counter takes one
    probe in the subsystem that owns it and one line here. *)

val count :
  Strip_obs.Metrics.row list -> ?labels:Strip_obs.Metrics.labels -> string -> int
(** [count registry ~labels name] is the counter row [name] whose labels,
    a [shard] label aside, are [labels] (default none), summed over the
    shard primaries of a sharded run; with a [shard] label among
    [labels], that shard's row alone.
    @raise Failure naming the row when the snapshot has none, or when
    it is not a counter. *)

val print_metrics_header : unit -> unit
(** Column legend: [mean_rc_us] / [p50_rc_us] / [p99_rc_us] / [max_rc_us]
    are recompute-transaction service times in simulated microseconds. *)

val print_metrics : Experiment.metrics -> unit

val print_failures : Experiment.metrics -> unit
(** One indented line of failure counters (injected faults, aborts,
    retries, sheds, dead letters, mean recovery latency); prints
    ["failures: (none)"] when the run saw no failures, so a clean run is
    distinguishable from a missing report. *)

val print_servers : Experiment.metrics -> unit
(** Indented multi-server rows: server count, makespan, recompute
    throughput, per-server utilization, and the lock-wait summary
    (count, mean/p50/p99/max wait, timeouts).  Silent for a single-server
    run that never waited on a lock, so historical reports are
    unchanged. *)

val print_recovery : Experiment.metrics -> unit
(** Indented durability/recovery rows: WAL and checkpoint volume with
    their simulated CPU overhead, crash/recovery totals, and the final
    consistency-audit verdict.  Silent for runs without a [recovery]
    config, so historical reports are unchanged. *)

val print_repl : Experiment.metrics -> unit
(** Indented replication rows: cluster shape and shipping volume, one row
    per replica (applied LSN, segment/duplicate/reorder/reseed counts,
    lag p50/p99), and the read-routing summary with latency percentiles
    and throughput.  Silent for runs without a [repl] config, so
    historical reports are unchanged. *)

val print_storage :
  Strip_obs.Metrics.row list -> Experiment.storage_metrics -> unit
(** One indented storage row: scrub passes and bytes re-read, WAL and
    checkpoint corruptions found, repairs by source, and salvage CPU.
    The scrubber's counts come from the run's registry snapshot. *)

val print_shard : Experiment.metrics -> unit
(** Indented sharding rows: shard count and partial-delta protocol volume
    (ships, acks, reships), the cross-shard composite audit verdict, and
    one row per shard primary (local work, queue verdict counters, crash
    count, final LSN).  Silent for single-primary runs, so historical
    reports are unchanged. *)

val print_slo : Experiment.metrics -> unit
(** One indented verdict line per staleness SLO objective (samples over
    bound, violation windows, violating seconds, worst sample); silent
    for runs without an [slo] config. *)

val print_trace : Experiment.metrics -> unit
(** One indented line per traced span buffer (node, events buffered,
    events dropped by the ring); silent when tracing was off. *)

val print_staleness : Experiment.metrics -> unit
(** One indented line per derived table: count, mean, p50/p90/p99 and max
    staleness in seconds (paper §7); silent when no maintenance
    transaction committed. *)

val storage_json :
  Strip_obs.Metrics.row list -> Experiment.storage_metrics -> Strip_obs.Json.t
(** The storage-fault block alone, given the run's registry snapshot —
    the chaos explorer embeds it in outcome and quarantine reports. *)

val metrics_json : Experiment.metrics -> Strip_obs.Json.t
(** The full metrics record as a JSON object, including recompute-latency
    percentiles and per-table staleness summaries.  NaN (e.g.
    [max_abs_error] with verification off) serialises as [null]. *)

val print_metrics_json : Experiment.metrics list -> unit
(** [{"experiments": [...]}] on stdout — the machine-readable counterpart
    of {!print_metrics_header}/{!print_metrics}. *)

val print_series :
  title:string ->
  ylabel:string ->
  delays:float list ->
  series:(string * (float * float) list) list ->
  value_fmt:(float -> string) ->
  unit
(** Print one figure as a delay × variant table.  [series] maps a variant
    label to (delay, value) points; a series with a single point (the
    non-unique baseline) prints the same value in every column, mirroring
    the horizontal line in the paper's plots. *)

val fmt_pct : float -> string
val fmt_count : float -> string
val fmt_us : float -> string
