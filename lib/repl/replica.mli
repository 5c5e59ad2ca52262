(** A read replica: its own catalog plus a local copy of the primary's
    durable state, fed by shipped WAL segments.

    The replica bootstraps from a checkpoint image (tables restored, a
    fresh WAL whose [base_lsn] is the image's LSN, the image installed in
    its own {!Strip_txn.Durable.t} slot) and then applies [Commit]
    records from arriving segments through the shared {!Strip_core.Redo}
    path.  Segments may arrive duplicated, reordered, or partially
    overlapping; apply is idempotent — bytes at or below [applied_lsn]
    are skipped, bytes beyond the contiguous frontier are buffered until
    the gap fills.

    Freshness is tracked as a {e horizon}: the latest primary send-time
    whose durable prefix this replica has fully applied (heartbeats
    advance it without carrying bytes).  Staleness at [now] is
    [now - horizon] — strictly positive under any nonzero link latency,
    which is why [bounded_staleness 0.0] can never elect a replica. *)

open Strip_relational

type t

val bootstrap :
  ?trace:Strip_obs.Trace.t ->
  id:int ->
  image:string ->
  lsn:int ->
  time:float ->
  unit ->
  t
(** Restore from checkpoint [image] consistent up to [lsn], captured at
    simulated [time].  Ticks ["repl_bootstrap_row"] per restored row.

    [trace] is this node's span buffer: each applied [Commit] emits an
    epoch-tagged [apply] event, parent-linked (via {!Strip_obs.Span})
    under the primary's commit span when the shipped log carries the
    matching {!Strip_txn.Wal.Trace_note}; fenced messages emit [fence]
    events.  The buffer survives {!rebootstrap} — it describes the node,
    not one incarnation of its state. *)

val rebootstrap : t -> image:string -> lsn:int -> time:float -> unit
(** Throw away this replica's state and restore from a newer image —
    used when the primary's truncation outran the replica, and to resync
    every surviving node after a failover. *)

val receive : t -> Link.message -> unit
(** Deliver one message.  Applies, buffers, or skips as appropriate.  A
    message stamped with a lower epoch than the highest seen is fenced
    (counted, otherwise ignored); a higher epoch is adopted on sight. *)

val ingest : t -> string -> horizon:float -> unit
(** Graft framed bytes starting exactly at [applied_lsn] and apply them,
    advancing the freshness horizon to [horizon] — the administrative
    catch-up path ({!Cluster.final_sync}), which records no lag sample. *)

val id : t -> int
val catalog : t -> Catalog.t
val durable : t -> Strip_txn.Durable.t
val applied_lsn : t -> int
val horizon : t -> float
val staleness : t -> now:float -> float

val epoch : t -> int
(** Highest primary term observed (0 until any stamped traffic lands). *)

val note_epoch : t -> int -> unit
(** Administratively adopt a term if it is higher than the current one —
    the election path, where the replica learns the new epoch directly
    rather than from link traffic. *)

val n_fenced : t -> int
(** Messages rejected for carrying a stale epoch. *)

val lag : t -> Strip_obs.Histogram.t
(** Per-applied-segment replication lag (arrival − send), seconds. *)

val n_segments : t -> int
val n_duplicates : t -> int
val n_reordered : t -> int
val n_bootstraps : t -> int
val n_commits_applied : t -> int

(** {1 Read lane} — a single service queue for the reads this replica
    serves; the router owns the arithmetic, the replica just stores the
    high-water mark. *)

val busy_until : t -> float
val set_busy_until : t -> float -> unit
val n_reads : t -> int
val incr_reads : t -> unit
