(** The sharded write path: N shard primaries, each a full
    {!Strip_core.Strip_db} (own engine, WAL, checkpoints), stitched
    together by an asynchronous partial-delta protocol for composite
    rows whose members live on other shards.

    {2 Protocol}

    A routed rule action on the emitting shard computes its {e local}
    weighted contribution to a remote composite and calls
    {!Strip_core.Rule_manager.emit_partial}; the partial is stamped with
    its destination's next ship sequence number at commit, logged as a
    [Wal.Shard_out] in the same append batch as the commit, and handed
    to this coordinator's outbox after the fsync.  The coordinator ships
    it over the shard-to-shard {!Strip_repl.Link} on the next tick and
    keeps it on an unacked list, resending every 0.25 s until the
    owner's ack arrives.  The tick also checkpoints every shard every
    5 s itself, rather than through a
    {!Strip_core.Strip_db.schedule_checkpoints} task, so every log
    truncation is immediately followed by a fresh [Shard_state].

    The owner dedups each arrival by [(src, seq)] ({!Dqueue}), logs a
    [Wal.Shard_in] for every novel one, merges same-key deltas, and —
    on the first pending contribution for a key — submits a
    recompute-class maintenance task that {e peeks} the merged delta,
    applies it to the composite table, and notes the release; the
    [Wal.Shard_release] rides the applying commit's fsync, after which
    the queue entry is retired.  Acks are always sent, duplicates
    included, because the first ack may itself have been dropped.

    At-least-once shipping + idempotent merge + atomic apply/release =
    exactly-once composite effect across crashes.

    {2 Determinism}

    Each tick processes shards in index order, then drains every link's
    arrived messages and handles them sorted by
    [(arrives_at, source shard, link sequence)] — a total order
    independent of hashtable iteration or arrival interleaving, so a
    fixed-seed run is byte-identical across re-runs.

    {2 Crash handling}

    A shard primary that crashes is restarted {e in place} (recovered
    from its own WAL + checkpoint), not failed over: an unshipped
    [Shard_out] tail is durable only in the primary's log, so promoting
    a replica that never saw those bytes could silently lose committed
    partials.  The restart itself belongs to the experiment's drive
    loop, the one place {!Strip_core.Recovery.restart} is called for
    every topology; the coordinator only rebuilds its protocol state.
    The loop {!scan_db}s the dead incarnation's log {e before}
    {!Strip_core.Recovery.recover} truncates it (rebuilding the dedup
    watermarks, pending merges, unacked ships and sequence counters
    from [Shard_state] + subsequent records), and {!on_restart} then
    re-ships everything unacknowledged, resubmits an apply task per
    pending key, and appends a fresh [Shard_state] past the recovery
    checkpoint's truncation point. *)

type apply =
  sid:int ->
  Strip_txn.Transaction.t ->
  key:Strip_relational.Value.t list ->
  delta:float ->
  unit
(** Fold a merged partial delta into shard [sid]'s composite row. *)

type t

val create :
  link:Strip_repl.Link.config -> apply:apply -> Strip_core.Strip_db.t array -> t
(** [create ~link ~apply dbs] connects every pair of shards by a
    {!Strip_repl.Link} with the model [link].  Installs the partial and release sinks on every shard's rule
    manager, and registers the shard's protocol counts in its metrics
    registry: [shard_partials_out_total], [shard_crashes_total] and the
    {!Dqueue}'s [dqueue_offered_total], [dqueue_duplicates_total],
    [dqueue_merged_total] and [dqueue_applied_total].
    @raise Invalid_argument on an empty array. *)

val checkpoint_all : t -> unit
(** Checkpoint every durable shard and append a fresh [Shard_state]
    snapshot after each truncation (also the initial baseline). *)

val step : t -> now:float -> unit
(** One coordinator tick, after the caller has advanced every shard's
    engine to [now]: take due checkpoints, flush outboxes and acks,
    resend stale unacked partials, then deliver and process everything
    arrived, in the deterministic order above. *)

val quiescent : t -> bool
(** No engine task pending, no partial unshipped, unacked or unapplied,
    no message in flight. *)

(** {1 Restart} *)

type log_state = {
  out_seqs : (int * int) list;
      (** [(dst, seq)], ascending [dst]: the highest seq logged towards
          [dst], where the stamper resumes *)
  queue : Dqueue.t;
      (** a fresh queue holding the logged dedup state and pending
          merges; its counters count only the replay *)
  outstanding :
    (int * int * Strip_relational.Value.t list * float * float) list;
      (** logged-but-unacknowledged ships [(seq, dst, key, delta,
          created_at)], ship order *)
}

val scan_log : (int * Strip_txn.Wal.record) list -> log_state
(** Rebuild a shard's cross-shard protocol state from its log records
    (as {!Strip_txn.Wal.read} returns them): the last [Shard_state]
    {!Dqueue.restore}s the queue, then each later [Shard_in] is
    {!Dqueue.offer}ed, each [Shard_release] {!Dqueue.remove}d and each
    [Shard_out] added to the unacked ships.  Crash recovery restores the
    live queue from the result. *)

val scan_db : Strip_core.Strip_db.t -> log_state
(** {!scan_log} over a shard's durable log.
    @raise Invalid_argument if it has no durability layer. *)

val on_restart : t -> int -> log:log_state -> Strip_core.Strip_db.t -> unit
(** Shard [i] was restarted in place as the given incarnation, from a
    log whose protocol state was [log] ({!scan_db} of the dead
    incarnation): adopt it, wire it like {!create} does, and rebuild the
    protocol state, as described above.  Counts one crash of shard [i]. *)

(** {1 Inspection} *)

val queue : t -> int -> Dqueue.t

val unacked : t -> int -> int
(** Partials shard [i] shipped and has no ack for yet. *)

val msgs_sent : t -> int
val bytes_shipped : t -> int
val partials_shipped : t -> int
val acks_sent : t -> int
val reships : t -> int
