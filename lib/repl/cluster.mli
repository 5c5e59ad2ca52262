(** A primary plus N read replicas fed by WAL log shipping.

    The shipper runs as a periodic background task on the primary's
    engine: each tick it sends every replica the durable log bytes it has
    not yet acknowledged seeing (optimistic resend — there are no acks,
    so a dropped segment is simply covered again next tick and duplicate
    delivery is handled idempotently by the replica), or a heartbeat when
    there is nothing new, which advances the replica's freshness horizon.
    A replica that has fallen behind the primary's truncation horizon is
    re-seeded with a full checkpoint image through the same link.

    Reads are routed by {!read_policy}; each node owns a single-lane
    service queue, so read latency is queueing plus metered execution
    cost and adding replicas adds lanes.

    On a primary crash, {!promote} deterministically elects the replica
    with the highest applied LSN (ties break toward the lowest replica
    id), rebuilds a full primary from that replica's own durable state
    through {!Strip_core.Recovery} — checkpoint image plus shipped log
    tail, including the pending unique-transaction queue — and repoints
    the cluster at it; {!resume} then re-seeds every other node (and the
    demoted old primary's slot) from the promoted node's post-recovery
    checkpoint.

    Every election opens a new {e epoch} (a monotonically increasing
    term, starting at 1 for the founding primary).  The current epoch is
    stamped into every shipped message; replicas fence anything from a
    lower term, so a deposed primary that is still alive behind a
    network partition ({!promote_isolated}) can keep committing locally
    but can never rewrite the promoted timeline.  When the partition
    {!heal}s, the old primary discovers the higher term, discards its
    divergent unshipped tail (reported as fenced bytes, distinct from
    crash-failover lost bytes), and rejoins as a replica. *)

open Strip_core

type read_policy = Any | Bounded_staleness of float | Primary_only

val policy_string : read_policy -> string
(** ["any"], ["bounded:S"], or ["primary"]. *)

type config = {
  n_replicas : int;
  link : Link.config;
  read_policy : read_policy;
  read_rate : float;  (** read-only queries per simulated second *)
  read_cost_s : float;
      (** fixed per-read service overhead added to the metered execution
          cost (result marshalling / protocol) *)
  seed : int;  (** read-key RNG seed *)
}

val default_config : config
(** 1 replica, default link, [Any], no reads. *)

type t

val create :
  ?trace_for:(int -> Strip_obs.Trace.t option) ->
  config ->
  primary:Strip_db.t ->
  read_table:string ->
  read_key_col:string ->
  read_keys:string array ->
  read_until:float ->
  t
(** Bootstrap [n_replicas] replicas from the primary's installed
    checkpoint.  [trace_for i] supplies replica [i]'s span buffer (default
    none): the caller owns the buffers so they survive re-seeding and can
    be merged into one cluster trace with
    {!Strip_obs.Trace.merge_chrome_json}.  Ship, promote and heal events
    land in the shipping / promoted node's own buffer, epoch-stamped.
    @raise Invalid_argument if [n_replicas > 0] and the
    primary has no durability layer or no checkpoint installed. *)

val ship_every : float
(** The shipping / heartbeat period: 50 ms of simulated time. *)

val schedule_shipping : t -> until:float -> unit
(** Schedule the periodic shipping task chain on the current primary's
    engine, first tick one {!ship_every} from now. *)

val primary : t -> Strip_db.t
val n_replicas : t -> int
val replica : t -> int -> Replica.t
val link : t -> int -> Link.t

val epoch : t -> int
(** Current primary term; starts at 1, bumped by every election. *)

val epoch_history : t -> (int * int) list
(** [(epoch, primary id)] in opening order; id -1 is the founding
    primary.  A restart in place ({!restarted}) opens no epoch. *)

(** {1 Reads} *)

val next_read_time : t -> float option
(** Release time of the next read, [None] when the configured rate is
    zero or the feed window is exhausted. *)

val serve_read : t -> now:float -> unit
(** Drain arrivals up to [now], route one read by policy, execute it
    raw (no locks — replicas are single-writer apply loops, and the
    primary lane models a read endpoint), and account latency as
    queueing-plus-service on the chosen node's lane. *)

(** {1 Salvage} *)

val fetch_clean : t -> from_lsn:int -> len:int -> string option
(** Serve [len] clean log bytes at [from_lsn] from any replica whose
    copy covers that range and still frames cleanly, or [None] when no
    replica can.  This is the first rung of the salvage ladder: the
    primary's scrubber (and salvage recovery) splices the returned bytes
    over a corrupt range in place, because shipped copies are
    byte-identical to what the primary originally logged. *)

(** {1 Failover} *)

type promotion = {
  promoted : int;  (** elected replica id *)
  promoted_lsn : int;  (** its applied LSN at election *)
  lost_bytes : int;
      (** durable-on-primary bytes that never reached the elected
          replica — lost to the cluster (always 0 for
          {!promote_isolated}: a partitioned primary's tail is fenced at
          {!heal}, not lost at election) *)
  epoch : int;  (** the term this promotion opened *)
}

val promote :
  t ->
  now:float ->
  mk_db:(Strip_txn.Durable.t -> Strip_db.t) ->
  reinstall:(Strip_db.t -> unit) ->
  Strip_db.t * Recovery.stats * promotion
(** Elect, rebuild a primary from the winner's durable state via
    {!Recovery.recover}, repoint the cluster, and open a new epoch.  The
    winner's store continues the old primary's WAL and checkpoint counts
    ({!Strip_txn.Durable.continue_counts}).
    In-flight link messages die with the old primary.  A replica-less
    cluster restarts in place instead ({!Recovery.restart}, then
    {!restarted}).  Re-raises {!Strip_txn.Fault.Crashed} if the fault
    injector fells the new primary mid-recovery; the call may simply be
    retried.
    @raise Invalid_argument with zero replicas. *)

val begin_partition : t -> now:float -> heal_at:float -> unit
(** Isolate the {e current} primary: add a partition window tagged with
    the current epoch to every link, open over sends in
    [[now, heal_at)].  The primary keeps running — its traffic just dies
    on the wire — and a subsequently elected primary's higher-epoch
    traffic flows over the same links untouched. *)

val promote_isolated :
  t ->
  now:float ->
  mk_db:(Strip_txn.Durable.t -> Strip_db.t) ->
  reinstall:(Strip_db.t -> unit) ->
  Strip_db.t * Recovery.stats * promotion
(** Like {!promote}, but the old primary is partitioned rather than
    dead: in-flight messages it launched before the cut still arrive,
    nothing is counted lost at election, and the old db handle is
    retained so {!heal} can fence its divergent tail.
    @raise Invalid_argument with zero replicas. *)

val heal : t -> now:float -> int
(** End the split-brain window opened by {!promote_isolated}: the
    deposed primary makes one last announcement in its frozen term
    (fenced by every replica), discards its unshipped divergent tail,
    and stands by to rejoin as a replica via {!resume}.  Returns the
    fenced byte count (also accumulated in {!fenced_bytes_total}); 0 if
    no primary is isolated. *)

val resume : t -> now:float -> ship_until:float -> unit
(** After {!promote} (and after downtime accounting): re-seed every
    replica slot from the promoted primary's fresh checkpoint, bump the
    primary read lane past the outage, and restart shipping. *)

val restarted : t -> now:float -> Strip_db.t -> unit
(** After a restart in place (no replica to fail over to): the restarted
    instance is the primary from now on, and reads routed to it during
    the outage queue behind it, as after {!resume}. *)

val final_sync : t -> now:float -> unit
(** End of run: deliver everything in flight and graft any remaining
    durable tail so replicas converge to the primary (no lag samples are
    recorded for this administrative catch-up). *)

(** {1 Accounting} *)

val n_failovers : t -> int
val lost_bytes_total : t -> int

val fenced_bytes_total : t -> int
(** Bytes discarded from deposed primaries' divergent tails at {!heal} —
    writes the old primary accepted during split brain that the promoted
    timeline never acknowledged. *)

val n_partitions : t -> int
(** Partition windows opened via {!begin_partition}. *)

val reads_issued : t -> int
val reads_primary : t -> int
val reads_replica : t -> int
val read_latency : t -> Strip_obs.Histogram.t
val last_read_done : t -> float
(** Completion time of the latest-finishing read, 0 if none ran. *)

val segments_sent : t -> int
val segments_dropped : t -> int
val bytes_shipped : t -> int

val ship_verify_skips : t -> int
(** Outgoing segments cut short because ship-time verification found a
    corrupt frame in the slice (storage-fault injection only — clean
    runs never scan). *)

val register_metrics : t -> Strip_obs.Metrics.t -> unit
(** Probe lag/routing/shipping counters into a registry under [repl_*]:
    cluster-wide rows, the lag merged over every replica
    ([repl_cluster_lag_s]), and per-replica rows labelled [replica]
    (applied LSN, lag, and segments, duplicates, reordered segments,
    bootstraps and reads as [repl_replica_*_total]).  Call again after
    {!promote} to wire the new primary's registry. *)
