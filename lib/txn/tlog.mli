(** Per-transaction change log.

    Records every insert, delete and update a transaction performs, in
    execution order.  At commit the rule system makes a single pass over
    this log to detect triggered rules and build transition tables
    (paper §6.3); on abort it is replayed backwards to undo.

    The [execute_order] sequence number is the one exposed to rules: the
    old and new images of one update share a number, so conditions can
    re-associate them (paper §2). *)

type change =
  | Inserted of Strip_relational.Record.t
  | Deleted of Strip_relational.Record.t
  | Updated of {
      old_rec : Strip_relational.Record.t;
      new_rec : Strip_relational.Record.t;
    }

type entry = {
  table : string;
  change : change;
  execute_order : int;  (** 1-based position within the transaction *)
}

type t

val create : unit -> t

val log_insert : t -> table:string -> Strip_relational.Record.t -> unit
val log_delete : t -> table:string -> Strip_relational.Record.t -> unit

val log_update :
  t ->
  table:string ->
  old_rec:Strip_relational.Record.t ->
  new_rec:Strip_relational.Record.t ->
  unit

val entries : t -> entry list
(** In execution order. *)

val entries_rev : t -> entry list
(** Newest first (the undo direction). *)

val length : t -> int

val tables_touched : t -> string list
(** Distinct table names, in first-touch order.  Kept up to date by every
    logged change, so reading it costs nothing. *)
