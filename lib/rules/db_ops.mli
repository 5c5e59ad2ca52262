(** Programmatic data operations for user functions.

    STRIP rule actions are application functions "linked into the database"
    — compiled code driving the cursor interface rather than ad-hoc SQL
    text.  These helpers give the PTA's user functions exactly that: the
    Table-1 cursor path (open / fetch / update / close) with the calling
    transaction's locks and logging, without per-call SQL parsing.

    All record access is metered identically to the SQL path, so simulated
    costs are comparable across both. *)

type lock_error = exn

val update_by_key :
  Strip_txn.Transaction.t ->
  Strip_relational.Table.t ->
  Strip_relational.Index.t ->
  Strip_relational.Value.t list ->
  (Strip_relational.Value.t array -> Strip_relational.Value.t array) ->
  int
(** Cursor-update every record matching the index key, applying [f] to a
    copy of its values; returns the match count.  Exclusive-locks each
    record (pinning the pre-image for the rule pass) and logs the change. *)

val lookup_one :
  Strip_txn.Transaction.t ->
  Strip_relational.Table.t ->
  Strip_relational.Index.t ->
  Strip_relational.Value.t list ->
  Strip_relational.Value.t array option
(** Shared-lock and read the first record with this key. *)

val update_stock_price :
  Strip_txn.Transaction.t ->
  stocks:Strip_relational.Table.t ->
  by_symbol:Strip_relational.Index.t ->
  symbol:string ->
  price:float ->
  unit
(** The canonical market-feed update: one-tuple cursor update of
    [stocks.price] — the paper's 172 µs transaction. *)

val iter_bound :
  Rule_manager.action_ctx ->
  string ->
  (Strip_relational.Value.t array -> unit) ->
  unit
(** Iterate a bound table of the action's TCB by name, through a cursor-like
    metered read path (open, fetch per row, close).
    @raise Not_found if the task has no bound table of that name. *)
