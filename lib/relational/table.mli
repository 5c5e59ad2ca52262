(** Standard tables (paper §6.1).

    A standard table is a linked list of fixed-layout records plus any number
    of secondary indexes (hash or red-black).  Updates are versioned: the new
    record replaces the old one at the same list position, the old record is
    retired and survives only while pinned by temporary tables.

    Each row has one list node for its whole life, found through the row's
    stable {!Record.base}.  An update stores the new version in that node
    and leaves the list links alone, so a row write allocates the version
    but no node; each index takes it through {!Index.replace}.

    Cursors are the primitive access path measured in the paper's Table 1:
    open / fetch / update / delete / close, each ticking its meter counter.
    A full-scan cursor walks the list; an index cursor walks the matching
    records of one key.  Cursors capture their successor before yielding a
    record, so updating or deleting through the cursor is safe.

    This module is transaction-agnostic; locking and logging are layered on
    top by {!Strip_txn.Transaction}. *)

type t

type cursor

val create : name:string -> schema:Schema.t -> t

val name : t -> string
val schema : t -> Schema.t
val cardinal : t -> int
(** Number of live records. *)

val create_index : t -> name:string -> kind:Index.kind -> cols:string list -> Index.t
(** Build (and register) an index over existing rows.
    @raise Not_found if a column name is unknown.
    @raise Invalid_argument if the index name is taken. *)

val find_index : t -> string -> Index.t option

val index_on : t -> string list -> Index.t option
(** Any index whose key columns are exactly these (by name, in order). *)

val indexes : t -> Index.t list

val index_gen : t -> int
(** Generation counter, bumped whenever the set of indexes changes.  Lets
    cached query plans validate their access-path choice in O(1). *)

val version : t -> int
(** Change counter, bumped by every row mutation ([insert], [update],
    [delete], [clear], and the cursor forms) and by [create_index].  Equal
    versions of the same physical table mean equal contents and index
    definitions, which lets checkpoint images reuse a table's encoding.
    Separate from {!index_gen} so row writes do not invalidate cached
    query plans. *)

val insert : t -> Value.t array -> Record.t
(** Append a record.  @raise Invalid_argument on schema mismatch. *)

val update : t -> Record.t -> Value.t array -> Record.t
(** [update t old values] links a fresh record in place of [old] and retires
    [old] (§6.1 versioning).  Returns the new record.
    @raise Invalid_argument if [old] is not live in [t]: deleted, or
    superseded by a later version of its row (the live version is told
    apart physically, not by base). *)

val delete : t -> Record.t -> unit
(** Unlink and retire a record.  @raise Invalid_argument if not live. *)

val iter : t -> (Record.t -> unit) -> unit
(** Unmetered whole-table iteration (used for bulk loading and tests). *)

val open_cursor : t -> cursor
(** Full-scan cursor. *)

val open_index_cursor : t -> Index.t -> Value.t list -> cursor
(** Cursor over the records matching one index key. *)

val open_range_cursor :
  t -> Index.t -> ?lo:Value.t list -> ?hi:Value.t list -> unit -> cursor
(** Cursor over the records whose ordered-index key lies in the inclusive
    range, in ascending key order.
    @raise Invalid_argument on a hash index. *)

val fetch : cursor -> Record.t option
(** Next record, or [None] at end. *)

val cursor_update : cursor -> Value.t array -> Record.t
(** Replace the record most recently fetched.  @raise Invalid_argument if no
    record has been fetched or it is no longer live. *)

val cursor_delete : cursor -> unit

val close_cursor : cursor -> unit

val clear : t -> unit
(** Remove all records (retiring each). *)

val to_rows : t -> Value.t array list
(** Snapshot of all live rows, in list order (copies). *)
