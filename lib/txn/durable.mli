(** Stable storage surviving a crash: the WAL plus retained checkpoint
    slots and a media-fault ledger.

    A [Durable.t] is the only state that outlives {!Fault.Crashed} — the
    engine, catalog, queues and every other in-memory structure are
    discarded and rebuilt from it by [Strip_core.Recovery].

    Checkpoint installation is atomic: the encoded snapshot is published
    with a CRC fixed at install time, so later verification
    ({!verified_slot}, {!scrub_slots}) can tell a rotted image from a
    clean one.  A slot holds its image as a list of immutable {!part}s
    (a checkpoint's head, one segment per table, its tail), each with its
    own CRC; the slot's CRC is combined from those, so installing an
    image copies and CRCs no byte.  Parts are shared with the checkpoint
    cache and between slots; verification still re-reads every stored
    byte on every call — each physically distinct part once per call,
    however many slots share it, with each slot's CRC combined from the
    fresh part CRCs — and the image is flattened into one string only
    when a caller asks for it ({!snapshot}, {!verified_slot}).  Up to [retain]
    slots are kept, newest first; with [retain >= 2] recovery can fall
    back to the previous slot when the newest image fails its CRC,
    provided the log is truncated no further than {!truncation_floor}.

    The media-fault ledger records every injected at-rest fault (bit rot
    in WAL bytes or checkpoint images, lying fsyncs) and tracks it from
    [Outstanding] through detection to one of the terminal states.  The
    chaos invariant [no_silent_corruption] asserts that no fault is
    still [Outstanding] when the run ends. *)

type t

(** [create ?wal ?retain ()] — [?wal] supplies a pre-existing log (a
    replica's shipped copy, whose [base_lsn] is the bootstrap
    checkpoint's LSN); default is a fresh empty log.  [?retain] (default
    1) is how many checkpoint slots to keep. *)
val create : ?wal:Wal.t -> ?retain:int -> unit -> t

val wal : t -> Wal.t
val retain : t -> int

type part = private { bytes : string; crc : int }
(** A piece of a checkpoint image and the CRC-32 of its bytes. *)

val part : string -> part
(** [part s] is [s] with its CRC. *)

val snapshot : t -> string option
(** Latest installed checkpoint image (encoded, flattened), if any —
    unverified; media-aware callers use {!verified_slot}. *)

val snapshot_lsn : t -> int
(** WAL position the latest snapshot is consistent up to; redo starts
    here. *)

val snapshot_time : t -> float

val snapshot_crc : t -> int
(** The install-time CRC-32 of the latest image; 0 when none exists. *)

val n_checkpoints : t -> int

val last_checkpoint_bytes : t -> int
(** Length of the latest image; 0 when none exists. *)

val install_parts : t -> parts:part list -> lsn:int -> time:float -> unit
(** Atomically publish a new checkpoint image, the concatenation of
    [parts], rotating out the oldest slot beyond [retain].  The parts are
    kept as they are (not copied) and the image CRC is combined from
    theirs. *)

val install_checkpoint : t -> encoded:string -> lsn:int -> time:float -> unit
(** [install_parts] of the one part [encoded]. *)

val verified_slot : t -> (string * int * float * int) option
(** [(image, lsn, time, skipped)] for the newest slot whose image still
    matches its install-time CRC; [skipped] counts newer slots that
    failed verification and were passed over.  [None] if no slot
    verifies.  Only the returned slot is flattened. *)

val truncation_floor : t -> int
(** LSN of the oldest retained slot — the log must not be truncated past
    it or slot fallback loses its redo tail.  0 when no slot exists. *)

val slots_valid : t -> bool
(** All retained slots pass their CRC.  Re-reads every byte of every
    physically distinct part (compared with [==] on its bytes) exactly
    once, and checks each slot's stored CRC against the combination of
    the fresh CRCs of its parts.  Nothing is remembered between calls. *)

val scrub_slots : t -> int
(** Drop every slot whose image fails its CRC (marking matching ledger
    faults [Detected]); returns how many were dropped.  Re-reads every
    distinct part once, like {!slots_valid}.  The caller is expected to
    take a fresh checkpoint when the count is nonzero. *)

(** {1 Media-fault ledger} *)

type fault_kind = Bitrot_wal | Bitrot_checkpoint | Fsync_lie

type fault_state =
  | Outstanding
  | Detected
  | Repaired
  | Quarantined
  | Expunged

val arm_media : t -> unit
(** Mark this store as running under storage-fault injection; gates the
    (scan-cost-bearing) ship-time verification and media metrics so
    fault-free runs stay byte-identical. *)

val media_armed : t -> bool
val note_injected : t -> kind:fault_kind -> lsn:int -> len:int -> unit

val flip_snapshot_byte : t -> frac:float -> bool
(** Bit-rot the newest checkpoint image at relative offset [frac]
    (0..1), recording the injection; the stored CRCs are left alone so
    verification fails.  The damage goes into a private copy of the one
    part the offset falls in, never into a part shared with the
    checkpoint cache or an older slot.  Returns false if there is no
    image to rot. *)

val note_wal_detected : t -> lsn:int -> len:int -> unit
val note_wal_repaired : t -> lsn:int -> len:int -> unit
val note_wal_quarantined : t -> from_lsn:int -> unit

val note_truncated : t -> below:int -> unit
(** WAL bytes strictly below [below] left the log behind a checkpoint
    without ever being read; faults wholly inside them become
    [Expunged]. *)

val note_cp_detected : t -> unit
val note_cp_repaired : t -> unit

val note_abandoned : t -> unit
(** The whole store left service (failover elected another node); every
    fault still pending becomes [Expunged]. *)

type media_counts = {
  injected_bitrot_wal : int;
  injected_bitrot_cp : int;
  injected_fsync_lie : int;
  detected : int;
  repaired : int;
  quarantined : int;
  expunged : int;
  outstanding : int;
}

val zero_counts : media_counts

val add_counts : t -> media_counts -> media_counts
(** Fold this store's ledger into [counts] — metrics union the current
    primary's store with every store abandoned at a failover. *)

val media_counts : t -> media_counts
val outstanding : t -> int
