(** Background media scrubber: periodic re-verification of durable bytes
    and checkpoint slots, with in-place repair.

    Real storage rots at rest, so detection cannot wait for the next
    crash.  The scrubber re-reads every retained byte of the store in a
    round-robin cycle — the durable WAL frames, then each distinct
    checkpoint part, newest slot first ({!Strip_txn.Durable.scrub_step})
    — but at a fixed pace: one pass re-reads at most {!budget} bytes and
    resumes where the last one stopped, so its cost per pass does not
    grow with the store.  A fault anywhere in the retained bytes is read
    within [ceil (retained / budget) + 1] passes.  It reports each
    corruption with its exact LSN range (["wal_corruption"] /
    ["checkpoint_corruption"] trace instants, the store's media-fault
    ledger, and the ["scrub_*"] meters).

    Repair ladder, per corrupt WAL range:
    + {b replica fetch} — re-fetch clean bytes for exactly that range
      from any replica whose log copy covers it ([?fetch], usually
      [Cluster.fetch_clean]) and splice them in place;
    + {b checkpoint} — when no replica can serve, take a fresh
      checkpoint: the live in-memory state is clean (at-rest corruption
      never influenced it), and truncating down to the fresh image
      expunges the corrupt range from the log;

    and a rotted checkpoint slot is dropped and replaced by a fresh
    checkpoint the same way.  A periodic scrub is {!scrub} in a
    {!Strip_db.every} task (never inside a transaction); its work is metered
    (["scrub_pass"]; ["scrub_byte"] for every WAL and checkpoint byte it
    re-reads; ["salvage_byte"], ["quarantine_byte"]) so the cost model
    can charge it. *)

type t
(** Scrub statistics, owned by the driver so they survive restarts. *)

type fetch = from_lsn:int -> len:int -> string option
(** Fetch [len] clean bytes at [from_lsn] from a replica covering the
    range; [None] when no replica can serve. *)

val create : unit -> t

val budget : int
(** Bytes one pass re-reads at most (128 KiB).  A pass stops before a WAL
    frame that would take it past the budget, except that it always
    checks at least one whole frame, and a corrupt frame's resync probes
    are not budgeted. *)

val scrub : ?fetch:fetch -> t -> Strip_db.t -> unit
(** One pass: the next {!budget} bytes of [db]'s durable store's scrub
    cycle, then the repair ladder for what they held.  No-op without a
    durability layer. *)

val scrub_cycle : ?fetch:fetch -> t -> Strip_db.t -> unit
(** Restart the store's cycle and run passes until it closes: every
    retained byte is re-read once.  The end-of-run scrub. *)

(** {1 Counters} *)

val bytes_scanned : t -> int
(** WAL bytes re-read and re-verified. *)

val repaired_replica : t -> int
val repaired_checkpoint : t -> int
val salvaged_bytes : t -> int

val expunged_bytes : t -> int
(** Log bytes truncated away by the checkpoint rung — the whole span
    below the emergency image, whose redo capability is destroyed, not
    just the rotten ranges inside it. *)

val register_metrics : t -> Strip_obs.Metrics.t -> unit
(** Probe the scrubber's counts into a registry: passes, WAL and
    checkpoint-slot bytes re-read, WAL and checkpoint corruptions found
    and every counter above, as [scrub_passes_total], [scrub_bytes_total],
    [scrub_slot_bytes_total], [scrub_wal_corruptions_total],
    [scrub_cp_corruptions_total], [scrub_repaired_replica_total], ....
    The scrubber outlives its primary's incarnations, so call it once per
    incarnation's registry. *)
