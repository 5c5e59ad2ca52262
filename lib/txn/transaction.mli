(** Transactions.

    A transaction wraps the relational engine's cursor path with two-phase
    locking and undo/event logging.  All data access flows through
    {!Strip_relational.Sql_exec} with this module's hooks installed:

    - every touched record is locked (and, when exclusively locked, pinned
      so its pre-image stays readable for the commit-time rule pass);
    - every change is appended to the transaction's {!Tlog};
    - commit stamps the virtual-clock time later exposed to bound tables'
      [commit_time] columns (paper §2);
    - abort replays the log backwards.

    Rule processing is deliberately *not* here: the rule system inspects
    the log between the application's last operation and commit
    ({!Strip_core.Rule_manager}), matching the paper's "event checking
    occurs at the end of each transaction prior to commit". *)

type status = Active | Committed | Aborted

exception Lock_conflict of {
  txid : int;
  blockers : int list;
  deadlock : bool;
}
(** Raised when a lock cannot be granted.  The simulated system serializes
    real execution so this never fires during experiments; concurrent tests
    exercise it directly. *)

type t

val begin_ :
  cat:Strip_relational.Catalog.t ->
  locks:Lock.t ->
  clock:Clock.t ->
  ?env:Strip_relational.Catalog.env ->
  unit ->
  t
(** Start a transaction.  [env] is the task-local bound-table scope for
    rule-action transactions.  Ticks ["begin_transaction"]. *)

val txid : t -> int
val status : t -> status
val log : t -> Tlog.t
val env : t -> Strip_relational.Catalog.env

val commit_time : t -> float
(** @raise Invalid_argument unless committed. *)

val hooks : t -> Strip_relational.Sql_exec.hooks
(** The lock/log hooks; exposed for callers that drive {!Sql_exec}
    directly. *)

val exec : t -> string -> Strip_relational.Sql_exec.exec_result
(** Parse and run one statement inside the transaction.
    @raise Lock_conflict, plus the parser/planner exceptions. *)

val exec_stmt :
  t -> Strip_relational.Sql_parser.statement -> Strip_relational.Sql_exec.exec_result

val query : t -> string -> Strip_relational.Query.result
(** Run a SELECT inside the transaction (shared-locks the scanned standard
    tables). *)

val commit : t -> unit
(** Stamp the commit time, release locks, tick ["commit_transaction"].
    Pinned pre-images stay pinned until {!cleanup} so the rule pass can
    still read them.  @raise Invalid_argument unless active. *)

val abort : t -> unit
(** Undo all changes (reverse log order), release locks, unpin, tick
    ["abort_transaction"].  @raise Invalid_argument unless active. *)

val cleanup : t -> unit
(** Unpin the pre-images held for the rule pass.  Idempotent; call after
    commit-time rule processing has built its transition tables. *)
