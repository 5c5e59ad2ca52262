(** Stable storage surviving a crash: the WAL plus retained checkpoint
    slots and a media-fault ledger.

    A [Durable.t] is the only state that outlives {!Fault.Crashed} — the
    engine, catalog, queues and every other in-memory structure are
    discarded and rebuilt from it by [Strip_core.Recovery].

    Checkpoint installation is atomic: the encoded snapshot is published
    with a CRC fixed at install time, so later verification
    ({!verified_slot}, {!scrub_step}) can tell a rotted image from a
    clean one.  A slot holds its image as a list of immutable {!part}s
    (a checkpoint's head, one segment per table, its tail), each with its
    own CRC; the slot's CRC is combined from those, so installing an
    image copies and CRCs no byte.  Parts are shared with the checkpoint
    cache and between slots; verification re-reads stored bytes — each
    physically distinct part once per check or scrub cycle, however many
    slots share it, with each slot's CRC combined from the fresh part
    CRCs — and the image is flattened into one string only
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
(** Images {!install_parts} published. *)

val last_checkpoint_bytes : t -> int
(** Length of the latest image; 0 when none exists. *)

val install_parts : t -> parts:part list -> lsn:int -> time:float -> unit
(** Atomically publish a new checkpoint image, the concatenation of
    [parts], rotating out the oldest slot beyond [retain].  The parts are
    kept as they are (not copied) and the image CRC is combined from
    theirs. *)

val install_checkpoint : t -> encoded:string -> lsn:int -> time:float -> unit
(** Publish the one part [encoded] like {!install_parts}, as a seed image
    (a replica's bootstrap), which {!n_checkpoints} does not count. *)

val continue_counts : t -> from:t -> unit
(** Add [from]'s checkpoint count and its log's counts
    ({!Wal.continue_counts}) to [t]'s: a promoted replica's store takes
    over the deposed primary's, so its counts cover the primary's whole
    run. *)

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

(** {1 Paced scrubbing}

    A scrub {e cycle} re-reads every retained byte of the store once, in
    a fixed round-robin order: the durable WAL frames from
    {!Wal.base_lsn} to {!Wal.durable_end} ({!Wal.verify_step}), then each
    physically distinct checkpoint part, slot by slot, newest slot first.
    A {!cursor} remembers where a cycle stands, so one {!scrub_step}
    re-reads only a bounded slice of it:
    - the WAL side resumes at a frame-aligned LSN, clamped up to the base
      after a truncation; a splice behind the cursor is read next cycle,
      and a dropped tail just ends the WAL side sooner;
    - a part larger than the budget left is CRC'd across several steps
      (CRC continuation); a part several slots share is read once per
      cycle;
    - a slot is judged once every one of its parts has been read in the
      current cycle: the fresh part CRCs are combined and compared with
      the slot's install-time CRC.  The slots judged are those retained
      when the WAL side finished; one installed later waits for the next
      cycle, and one dropped or rotated out before its turn is skipped.

    A fault injected anywhere in the retained bytes is therefore read
    within one cycle's worth of bytes of its injection:
    [ceil (retained / budget) + 1] steps, the one extra for a cycle's
    last step, which never starts the next cycle.  (A WAL-side step may
    fall short of its budget by less than one frame; with frames far
    smaller than the budget that slack stays inside the extra step.) *)

type cursor
(** A position in one store's scrub cycle. *)

val cursor : unit -> cursor
(** A cursor at the start of a cycle. *)

val rewind : cursor -> unit
(** Restart the cursor's cycle from its beginning. *)

type slot
(** A retained checkpoint slot. *)

val slot_time : slot -> float
(** The install time the slot was published with. *)

type step = {
  wal_ranges : (int * int) list;
      (** corrupt WAL ranges found, as {!Wal.verify} reports them *)
  bad_slots : slot list;
      (** slots that failed their CRC, newest first, dropped with their
          faults marked [Detected] *)
  wal_bytes : int;  (** WAL bytes covered, corrupt ranges included *)
  slot_bytes : int;  (** checkpoint-part bytes re-read *)
  closed : bool;  (** this step finished the cycle; the cursor is rewound *)
}

val scrub_step : t -> cursor -> budget:int -> step
(** Advance [cursor] through about [budget] bytes of the store (see
    {!Wal.verify_step} for the WAL side's frame granularity; the slot
    side never exceeds what is left).  A step never starts a new cycle:
    the one that finishes a cycle returns [closed] with the cursor
    rewound. *)

val note_scrub_pass : t -> budget:int -> unit
(** Account one background scrubber pass after its repairs: mark the
    pending faults of every slot that has left retention [Expunged] (the
    checkpoint counterpart of {!note_truncated}: the slot was rotated out
    before the cycle reached it); and age every fault still
    [Outstanding].  A fault that is still [Outstanding] after
    [ceil (retained / budget) + 1] passes — with [retained] the largest
    {!retained_bytes} seen at those passes — is counted as [late] in
    {!media_counts}. *)

val retained_bytes : t -> int
(** Durable WAL bytes plus every physically distinct checkpoint part's
    bytes: what one scrub cycle re-reads. *)

val scrub_slots : t -> int
(** One whole slot-side cycle ({!scrub_step} steps with the WAL side
    skipped and no budget limit): drop every slot whose image fails its
    CRC (marking its ledger faults [Detected]); returns how many were
    dropped.  The caller is expected to take a fresh checkpoint when the
    count is nonzero. *)

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
    (0..1), recording the injection against that slot; the stored CRCs
    are left alone so verification fails.  The damage goes into a private copy of the one
    part the offset falls in, never into a part shared with the
    checkpoint cache or an older slot.  Returns false if there is no
    image to rot. *)

val rot : t -> target:[ `Wal | `Checkpoint ] -> frac:float -> bool
(** At-rest bit rot: flip one durable byte at relative offset [frac]
    (0..1) of the WAL, or one byte of the newest checkpoint image
    ({!flip_snapshot_byte}), recording the injection in the ledger.
    Returns false when there is nothing to rot. *)

val arm_fsync_lie : t -> notify:(unit -> unit) -> unit
(** Make the log's next fsync lie ({!Wal.arm_fsync_lie}); the lie is
    recorded in the ledger when it happens, and [notify] is called
    after. *)

val note_wal_detected : t -> lsn:int -> len:int -> unit
val note_wal_repaired : t -> lsn:int -> len:int -> unit
val note_wal_quarantined : t -> from_lsn:int -> unit

val note_truncated : t -> below:int -> unit
(** WAL bytes strictly below [below] left the log behind a checkpoint
    without ever being read; faults wholly inside them become
    [Expunged]. *)

val note_cp_detected : t -> newest:int -> unit
(** The [newest] newest slots were read and failed: their faults become
    [Detected].  Faults in other slots are untouched. *)

val note_cp_repaired : t -> slot -> unit
(** The dropped slot was replaced by a fresh checkpoint: its faults
    become [Repaired].  A slot rotated out of retention
    instead takes its pending faults to [Expunged] at the scrubber's
    next pass ({!note_scrub_pass}); with no scrubber they stay
    [Outstanding] — nothing ever read them. *)

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
  late : int;
      (** faults that stayed [Outstanding] past the scrub detection bound
          (see {!note_scrub_pass}), whatever their state now *)
}

val zero_counts : media_counts

val add_counts : t -> media_counts -> media_counts
(** Fold this store's ledger into [counts] — metrics union the current
    primary's store with every store abandoned at a failover. *)

val media_counts : t -> media_counts
val outstanding : t -> int
