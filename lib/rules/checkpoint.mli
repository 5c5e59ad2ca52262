(** Action-consistent database snapshots (fuzzy checkpointing).

    A checkpoint captures, at a point between transactions, everything a
    restart needs that the WAL alone cannot cheaply provide: all standard
    tables (base {e and} maintained views) with their index definitions,
    the SQL text of each view, and the queued unique transactions with
    their bound rows.  The feed is never stopped — the snapshot runs as an
    ordinary background task between transactions, so it is consistent at
    its instant while the log keeps flowing around it ("fuzzy" at the
    level of the feed, action-consistent at the level of transactions).

    The image records the WAL LSN it is consistent up to; redo starts
    there, and the log behind it can be truncated once the image is
    durably installed. *)

open Strip_relational
open Strip_txn

type table_snap = {
  tname : string;
  cols : (string * Value.ty) list;
  indexes : (string * Index.kind * string list) list;
  rows : Value.t array list;
}

type queue_entry = {
  qfunc : string;
  qkey : Value.t list;
  qrelease_time : float;
  qcreated_at : float;
  qbound : Wal.bound_rows;
}

type t = {
  taken_at : float;
  wal_lsn : int;
  tables : table_snap list;  (** catalog creation order *)
  views : (string * string) list;  (** (name, sql), declaration order *)
  queue : queue_entry list;  (** task-id order *)
}

val capture :
  cat:Catalog.t ->
  views:(string * string) list ->
  reg:Unique.t ->
  now:float ->
  wal_lsn:int ->
  t

val total_rows : t -> int
(** Table rows plus queued bound rows — the unit the ["checkpoint_row"]
    cost is charged per. *)

val restore_tables : t -> Catalog.t -> unit
(** Recreate every table (rows, then indexes) in a fresh catalog with raw
    unlogged inserts.  View {e tables} are restored like any other — their
    definitions must be re-registered separately, without re-execution. *)

val encode : t -> string

(** {1 Incremental images}

    Between two checkpoints most tables do not change (in the PTA
    workload only [stocks] and [comp_prices] do).  A cache keeps each
    table's encoded segment from the previous image, keyed by the
    physical {!Strip_relational.Table.t} and its
    {!Strip_relational.Table.version}; a table is re-encoded only when it
    is a different table (dropped and recreated, or a new incarnation's
    catalog) or its version moved.  Segments are produced by the same
    encoder as {!encode}, so the image is byte-identical to
    [encode (capture ...)].  An image is handed out as its parts — a
    head, one segment per table, a tail — each with its CRC, ready for
    {!Strip_txn.Durable.install_parts}; an unchanged table's segment and
    its CRC are shared between the cache and every slot holding it, so a
    checkpoint copies and CRCs only the tables that changed.  Parts are
    immutable and {!Strip_txn.Durable.flip_snapshot_byte} rots a private
    copy, so damage to a stored slot cannot leak into a later image. *)

type cache

val create_cache : unit -> cache

val image :
  cache ->
  cat:Catalog.t ->
  views:(string * string) list ->
  reg:Unique.t ->
  now:float ->
  wal_lsn:int ->
  Durable.part list * int
(** [image c ~cat ~views ~reg ~now ~wal_lsn] is [(parts, total_rows s)]
    for [s = capture ~cat ~views ~reg ~now ~wal_lsn], where the parts
    concatenate to [encode s], reusing the cached segment of every
    unchanged table.  The row count is the full capture's, so the
    ["checkpoint_row"] cost the caller charges still models a full
    snapshot. *)

val decode : string -> t
(** @raise Strip_txn.Codec.Decode_error on a malformed image. *)
