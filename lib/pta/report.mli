(** Tabular and JSON output for the figure-reproduction harness.

    A report renders the typed fields of {!Experiment.metrics} and, for
    every count nothing else reads, the run's metrics-registry snapshot
    ([registry]) through {!count}.  Each section's entries are built
    once, in JSON order, and its text lines are templates naming them, so
    adding such a counter takes one probe in the subsystem that owns it
    and one entry here (plus a placeholder if the text shows it). *)

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

type section =
  | Row  (** the figure row under {!print_metrics_header} *)
  | Failures  (** faults, aborts, retries, sheds, dead letters; ["(none)"] if clean *)
  | Servers
      (** makespan, utilization per server, lock waits; silent for a
          single server that never waited on a lock *)
  | Recovery  (** WAL and checkpoint volume, crashes, the final audit *)
  | Replication  (** shipping, one row per replica, read routing *)
  | Storage  (** scrub passes, corruptions found, repairs by source *)
  | Sharding  (** partial-delta protocol, cross-shard audit, one row per shard *)
  | Staleness  (** one row per derived table (paper §7) *)
  | Slo  (** one verdict per staleness objective *)
  | Trace  (** one row per traced span buffer *)
  | Updates  (** updates, firings, fanout and busy time *)

val sections : section list
(** Every section, in report order. *)

val print : section list -> Strip_obs.Json.t -> unit
(** [print sections report] prints each of [sections], in that order,
    from a {!metrics_json} report (or any object holding a section's
    member, as the chaos explorer's outcome holds ["storage"]).  Every
    line is a template over the section's entries, so the text shows
    exactly the JSON's values; a section whose member is absent (its
    subsystem was not armed) prints nothing.
    @raise Failure naming a template placeholder that names no entry;
    nothing is printed then. *)

val storage_json :
  Strip_obs.Metrics.row list -> Experiment.storage_metrics -> Strip_obs.Json.t
(** The storage-fault block alone, given the run's registry snapshot —
    the chaos explorer embeds it in outcome and quarantine reports. *)

val metrics_json : Experiment.metrics -> Strip_obs.Json.t
(** The full metrics record as a JSON object: the top-level entries, then
    one member per armed section.  NaN (e.g. [max_abs_error] with
    verification off) serialises as [null]. *)

val print_metrics_json : Experiment.metrics list -> unit
(** [{"experiments": [...]}] on stdout — the machine-readable counterpart
    of {!print}. *)

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
