(** Statement execution.

    Binds the parser to the storage engine.  DML goes through the cursor
    primitives of {!Table} — the same open/fetch/update/close path the
    paper's Table 1 measures — and uses an index cursor whenever the WHERE
    clause pins an indexed column to a constant.

    Locking and logging are not implemented here: the caller (normally
    {!Strip_txn.Transaction}) passes {!hooks} whose callbacks fire around
    each data operation.  Without hooks the statement runs raw, which is
    what bulk loading uses. *)

type lock_mode = Shared | Exclusive

type hooks = {
  lock_table : Table.t -> lock_mode -> unit;
      (** before touching any rows of the table *)
  lock_record : Table.t -> Record.t -> lock_mode -> unit;
      (** before reading (Shared) or modifying (Exclusive) a record *)
  on_insert : Table.t -> Record.t -> unit;
  on_update : Table.t -> old_rec:Record.t -> new_rec:Record.t -> unit;
  on_delete : Table.t -> Record.t -> unit;
}

type exec_result =
  | Rows of Query.result  (** SELECT *)
  | Count of int  (** INSERT / UPDATE / DELETE: rows affected *)
  | Unit  (** DDL *)

val plan_select :
  Catalog.t -> env:Catalog.env -> Sql_parser.select_ast -> Query.plan

val exec :
  ?hooks:hooks ->
  ?on_view:(string -> Sql_parser.select_ast -> unit) ->
  Catalog.t ->
  env:Catalog.env ->
  Sql_parser.statement ->
  exec_result
(** Execute one parsed statement.  [CREATE VIEW] materializes the view into
    a standard table and reports its definition through [on_view] so the
    caller can generate maintenance rules.
    @raise Sql_parser.Parse_error on planning errors
    @raise Query.Plan_error on execution-time resolution errors *)

val exec_string :
  ?hooks:hooks ->
  ?on_view:(string -> Sql_parser.select_ast -> unit) ->
  Catalog.t ->
  env:Catalog.env ->
  string ->
  exec_result
(** Parse and execute exactly one statement. *)

val query : ?hooks:hooks -> Catalog.t -> env:Catalog.env -> string -> Query.result
(** Parse, plan and run a SELECT. *)
