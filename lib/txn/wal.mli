(** Redo write-ahead log.

    The log is fed from the per-transaction {!Tlog} at commit: each commit
    appends one {!record} carrying the after-images of every change, in
    [execute_order].  Unique-transaction queue maintenance (enqueue, merge,
    release) is logged alongside so queued batches survive a crash.

    Entries are framed [[u32 len][u32 crc][payload]] (little-endian); an
    entry's LSN is the byte offset of its frame start since log creation.
    Appends land in a volatile [pending] buffer and only become durable at
    {!fsync} — a crash ({!lose_tail}) discards the pending tail, modelling
    writes that never reached stable storage.  {!truncate_to} drops durable
    bytes behind a checkpoint LSN without renumbering later entries. *)

open Strip_relational

type op =
  | Insert of { table : string; order : int; values : Value.t array }
  | Delete of { table : string; order : int; values : Value.t array }
  | Update of {
      table : string;
      order : int;
      old_values : Value.t array;
      new_values : Value.t array;
    }

type bound_rows = (string * Value.t array list) list
(** Bound temp-table contents of a queued unique transaction, keyed by the
    (unqualified) bound-table name. *)

type trace_subject =
  | For_txn of int
      (** annotates the commit with this txid: a replica parents its
          apply span under the primary's commit span *)
  | For_uq of { func : string; key : Value.t list }
      (** annotates the queued unique batch for [(func, key)]: crash
          recovery reattaches the context to the resubmitted task *)

type record =
  | Commit of { txid : int; time : float; ops : op list }
  | Uq_enqueue of {
      func : string;
      key : Value.t list;
      release_time : float;
      created_at : float;
      bound : bound_rows;
    }
  | Uq_merge of { func : string; key : Value.t list; bound : bound_rows }
  | Uq_release of { func : string; key : Value.t list }
  | Checkpoint_mark of { time : float; lsn : int }
  | Trace_note of { subject : trace_subject; trace : int; span : int }
      (** causal-trace annotation riding the same fsync as the record it
          describes; written only when tracing is on, so flag-off logs
          are byte-identical to earlier releases *)
  | Shard_out of {
      seq : int;
      dst : int;
      key : Value.t list;
      delta : float;
      created_at : float;
    }
      (** a weighted partial delta owed to composite row [key] on shard
          [dst], logged atomically with the commit that produced it;
          recovery re-ships every logged-but-unacknowledged partial
          (at-least-once) *)
  | Shard_in of {
      src : int;
      seq : int;
      key : Value.t list;
      delta : float;
      created_at : float;
    }
      (** durable receipt of a shipped partial on the owning shard;
          [(src, seq)] is the dedup identity that turns at-least-once
          shipping into an exactly-once merge effect *)
  | Shard_release of { key : Value.t list }
      (** the owner applied the merged partials for [key]; rides the
          applying commit's append batch so apply and release share one
          fsync *)
  | Shard_state of {
      out_seqs : (int * int) list;
      watermarks : (int * int * int list) list;
      pending : (Value.t list * float * float) list;
      unacked : (int * int * Value.t list * float * float) list;
    }
      (** snapshot of a shard's cross-shard protocol state: the last seq
          stamped per destination [(dst, seq)], one dedup watermark per
          source [(src, floor, seqs merged above floor)], unapplied
          per-key deltas and in-flight ships; re-appended after recovery
          because the recovery checkpoint truncates the log the
          individual records lived in *)

val op_table : op -> string
val op_order : op -> int

val ops_of_tlog : Tlog.t -> op list
(** Convert a committed transaction's log into redo ops, oldest first,
    preserving [execute_order]. *)

type t

exception
  Out_of_range of { fn : string; lsn : int; base_lsn : int; durable_end : int }
(** An LSN argument lies outside the durable log.  [fn] names the
    operation that refused it. *)

exception Disk_full of { need : int; capacity : int; used : int }
(** An append would exceed the byte budget set by {!clamp}.
    Typed backpressure: the engine translates this into a crash-and-recover
    cycle instead of growing without bound. *)

val create : ?base_lsn:int -> unit -> t
(** [base_lsn] (default 0) is the LSN of the first byte this log will hold
    — a replica's log copy starts at its bootstrap checkpoint's LSN. *)

val append : t -> record -> int
(** Frame and append a record to the pending (unsynced) tail; returns its
    LSN.  Ticks the ["wal_append"] meter. *)

val append_batch : t -> record list -> int list
(** Append a transaction's records in one pass: all payloads are encoded
    into a single reused buffer and framed from it, instead of allocating
    an encode buffer per record.  The resulting byte stream, LSNs and
    ["wal_append"] tick count are exactly those of the equivalent
    per-record {!append}s. *)

val fsync : t -> unit
(** Make all pending bytes durable.  Ticks the ["wal_fsync"] meter. *)

val lose_tail : t -> unit
(** Crash: discard everything appended since the last {!fsync}. *)

val truncate_to : t -> lsn:int -> unit
(** Drop durable bytes strictly before [lsn] (a checkpoint boundary).
    @raise Out_of_range if [lsn] is outside the durable log. *)

(** {1 Positions and volume} *)

val base_lsn : t -> int
val durable_end : t -> int
val pending_bytes : t -> int
val durable_bytes : t -> int
val n_appends : t -> int
val n_fsyncs : t -> int
val n_truncations : t -> int
val appended_bytes : t -> int

val continue_counts : t -> from:t -> unit
(** Add [from]'s append, fsync and appended-byte counts to [t]'s, so a
    log that takes over from another (a promoted replica's copy of a
    deposed primary's) counts the primary's whole run. *)

(** {1 Reading (recovery)} *)

type read_result = {
  records : (int * record) list;  (** (lsn, record), oldest first *)
  torn_at : int option;
      (** LSN of a torn final entry that was dropped, if any *)
  corrupt_at : int option;
      (** LSN of a mid-log corrupt entry; scanning stopped there *)
}

val read : t -> read_result
(** Scan the durable log.  A final entry that is incomplete or fails its
    CRC is treated as a torn write and dropped ([torn_at]); a bad entry
    with valid entries after it is corruption ([corrupt_at]) and scanning
    stops. *)

val read_from : t -> lsn:int -> read_result
(** Cursor-style tail read: scan durable entries starting at [lsn],
    without re-decoding anything before it.  [lsn] must be an entry
    boundary previously returned by {!append} (or {!base_lsn} /
    {!durable_end}).  @raise Out_of_range if [lsn] lies outside
    [[base_lsn, durable_end]]. *)

val scan_bytes : base:int -> string -> read_result
(** Decode already-framed bytes whose first byte has LSN [base] without
    installing them anywhere. *)

(** {1 Integrity verdicts} *)

type verdict =
  | Clean  (** every frame passes to the end of the bytes *)
  | Torn_at of int
      (** the final frame, at this LSN, is incomplete or fails its
          check — what a torn write leaves *)
  | Corrupt_at of int
      (** the frame at this LSN fails its check and is not the last *)

val check_bytes : base:int -> string -> verdict
(** The verdict {!scan_bytes} would reach ([Torn_at l] iff its [torn_at]
    is [Some l], [Corrupt_at l] iff its [corrupt_at] is), without
    building a record: each frame's CRC is checked and its payload runs
    the full record grammar (every tag, length and trailing-byte check)
    on a checking {!Codec.reader}, in place.  Integrity verification of a
    shipped segment or a salvage candidate before it is grafted onto a
    log.  The grammar check matters: a zero gap left by a lying fsync
    passes every CRC ([len = 0], [crc = 0], and the CRC of no bytes is
    0), and only the grammar rejects its empty payloads. *)

(** {1 Log shipping} *)

val durable_slice : t -> from_lsn:int -> string
(** Raw framed bytes of the durable log from [from_lsn] (an entry
    boundary) to {!durable_end} — the segment a primary ships to a
    replica.  @raise Out_of_range if [from_lsn] lies outside
    [[base_lsn, durable_end]]. *)

val install_bytes : t -> string -> unit
(** Append already-framed bytes directly to the durable buffer.  Used by
    a replica to graft a shipped segment onto its local log copy; the
    bytes must start exactly at {!durable_end}. *)

(** {1 Media faults} *)

val clamp : t -> int option -> unit
(** [clamp t (Some free)] caps the bytes the device will hold (durable +
    pending) at what it holds now plus [free]; appends that would exceed
    the cap raise {!Disk_full}.  [clamp t None] removes the cap (a new
    log has none) — the heal side of a disk-full fault. *)

val arm_fsync_lie : t -> notify:(lsn:int -> len:int -> unit) -> unit
(** Arm a lying fsync: the next {!fsync} with pending bytes acknowledges
    the write but silently replaces the acked bytes with a zero gap of
    the same length (LSN accounting is unchanged).  [notify] fires with
    the gap's position when the lie happens.  The gap surfaces as
    mid-log corruption whenever the range is re-read. *)

val flip_byte : t -> lsn:int -> unit
(** At-rest bit rot: XOR the durable byte at [lsn] with [0xff].
    @raise Out_of_range if [lsn] is not a durable byte position. *)

val n_disk_fulls : t -> int
(** Appends refused by the capacity cap. *)

val lied_bytes : t -> int
(** Total bytes silently discarded by lying fsyncs. *)

(** {1 Scrub and salvage} *)

val verify_step : t -> from:int -> budget:int -> int * (int * int) list
(** One paced slice of {!verify}: check frames in place from the frame
    boundary [from] (clamped up to {!base_lsn}, so a cursor survives
    {!truncate_to}) until about [budget] bytes are covered, and return
    [(next, ranges)] — the frame boundary to resume at and the corrupt
    ranges found, exactly as {!verify} reports them.  [next >=]
    {!durable_end} means the rest of the log verified; a cursor beyond
    the end (after {!drop_from}) comes back unchanged.  Only the slice is
    copied.  A step stops before the first frame that would take it past
    [budget], but always checks at least one whole frame, so a frame
    longer than [budget] is read in one step.  A frame that fails its
    check resynchronizes as {!verify} does, probing the chain to the end
    of the log, and the step continues from the resync point while
    budget is left; the corrupt range counts toward the bytes covered. *)

val verify : t -> (int * int) list
(** Re-read every byte of the durable log ({!verify_step} with an
    unbounded budget: one copy of it per call, each frame checked in
    place as by {!check_bytes}, no record built) and return the corrupt
    LSN ranges
    [(start, resync)] — [start] is where frame verification first
    failed, [resync] the first later offset from which the frame chain
    parses cleanly to the end of the log ({!durable_end} if none).
    A frame that merely parses past the end of the log counts as
    corruption only when the chain re-synchronizes strictly before the
    end — otherwise it is a genuine torn tail (an interrupted final
    append), which recovery truncates as usual and scrubbing must not
    flag.  Empty means the log is clean. *)

val next_valid_lsn : t -> after:int -> int
(** First LSN strictly after [after] at which the durable frame chain
    re-synchronizes (a frame parses right there and the chain stays clean
    to the end of the log, a torn final frame allowed), or {!durable_end}
    if the rest of the log is unusable.  Each candidate is probed with
    the verdict-only walk of {!check_bytes} over one copy of the log. *)

val splice : t -> lsn:int -> bytes:string -> unit
(** Overwrite the durable range starting at [lsn] with clean bytes
    (typically fetched from a replica whose log covers the corrupt
    range).  @raise Out_of_range if the range does not fit inside the
    durable log. *)

val drop_from : t -> lsn:int -> int
(** Quarantine: discard the durable tail from [lsn] onwards and return
    the number of bytes dropped.  Used when no replica can serve clean
    bytes for a corrupt range.  @raise Out_of_range on a bad [lsn]. *)

(** {1 Test hooks} *)

val durable_contents : t -> string
val set_durable_for_test : t -> string -> unit
