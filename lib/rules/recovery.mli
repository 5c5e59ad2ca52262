(** Restart recovery (redo from the last checkpoint).

    Rebuilds a crashed database on a {e fresh} {!Strip_db.t} that shares
    the crashed instance's {!Strip_txn.Durable.t}:

    + restore every table from the last installed checkpoint image;
    + re-register the image's view definitions without executing them;
    + run the caller's [reinstall] hook (reattach handles, register user
      functions, reinstall rules);
    + redo the WAL tail past the image's LSN with raw table operations —
      no rule fires during redo, because committed maintenance left its
      own [Commit] records and uncommitted maintenance survives as queue
      state;
    + rebuild the unique-transaction queue (checkpoint image + logged
      enqueue/merge/release transitions) and resubmit it through
      {!Rule_manager.resubmit_recovered};
    + take a fresh checkpoint, making the recovered state the durable
      baseline and truncating the replayed log.

    The caller then re-drives the remaining workload and runs the
    {!Auditor} once the engine drains.  Recovery work is metered
    (["recovery_restore_row"], ["recovery_redo_op"],
    ["recovery_requeue"]) so its simulated latency can be charged.

    A crash injected {e during} recovery (the post-recovery checkpoint
    has a [Crash] site) leaves the old durable state untouched; the
    driver simply retries on another fresh instance. *)

type stats = {
  had_checkpoint : bool;
  restored_tables : int;
  restored_rows : int;
  redo_commits : int;
  redo_ops : int;  (** individual insert/update/delete images re-applied *)
  requeued : int;  (** unique transactions resubmitted *)
  requeued_rows : int;  (** bound rows carried by the resubmissions *)
  released : int;  (** queue slots retired by logged releases *)
  torn_tail : bool;  (** an incomplete final entry was discarded *)
  corrupt_tail : bool;  (** mid-log corruption was found (and salvaged) *)
  cp_fallbacks : int;
      (** checkpoint slots that failed their CRC and were passed over *)
  salvaged_ranges : int;  (** corrupt ranges re-fetched from a replica *)
  salvaged_bytes : int;
  quarantined_bytes : int;
      (** tail bytes dropped because no replica covered the range *)
  orphan_merges : int;
      (** [Uq_merge] records whose enqueue was lost; a synthetic entry
          was created instead of aborting recovery *)
}

type salvage = from_lsn:int -> len:int -> string option
(** Fetch [len] clean bytes starting at [from_lsn] from any replica
    whose log copy covers the range; [None] when no replica can serve
    (recovery then quarantines the tail). *)

val recover : ?salvage:salvage -> Strip_db.t -> reinstall:(unit -> unit) -> stats
(** @raise Invalid_argument if [db] has no durability layer or no
    checkpoint image is installed (take an initial checkpoint right after
    population, before the feed starts), or if every retained checkpoint
    slot fails its CRC.
    @raise Failure if a redo image does not match the restored state. *)

(** {1 Bringing a primary back} *)

val until_up :
  cost:Strip_sim.Cost_model.t ->
  ?record_crash:bool ->
  (unit -> Strip_db.t * 'a) ->
  Strip_db.t * 'a * float
(** [until_up ~cost attempt] retries [attempt] (bring up a fresh
    instance and recover it, in place or by promotion) until one
    survives without a {!Strip_txn.Fault.Crashed} escape.  The metered
    work of every attempt is charged through [cost] as downtime: the
    survivor's clock advances by it and, unless [record_crash] is
    [false], it is recorded as one crash in the survivor's stats.
    Returns the survivor, [attempt]'s result and the downtime in
    seconds. *)

val restart :
  cost:Strip_sim.Cost_model.t ->
  ?condemned:(Strip_db.t -> unit) ->
  fresh:(unit -> Strip_db.t) ->
  reinstall:(Strip_db.t -> unit) ->
  unit ->
  Strip_db.t * stats * float
(** Restart in place: {!until_up} over {!recover} on [fresh ()]
    instances bound to the crashed primary's durable store.  An attempt
    that crashes mid-recovery is condemned ({!Strip_db.crash}) and
    passed to [condemned] before the next one. *)

val pp_stats : Format.formatter -> stats -> unit
