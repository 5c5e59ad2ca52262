(** Derived-data consistency auditor.

    The maintained views are redundant by construction: [comp_prices] and
    [option_prices] must equal what their defining queries produce from the
    base tables.  The auditor recomputes each registered view definition
    from scratch, groups both sides by the view's key (its first result
    column), and compares per-key row multisets — floats within a relative
    tolerance, everything else exactly.

    It runs in two roles: as the final gate of crash recovery (a recovered
    database must audit clean {e after} the rebuilt unique queue drains),
    and as a standalone invariant checker on any live database.

    {!enqueue_repairs} turns divergences into ordinary update-class repair
    transactions that replace the view's rows for each divergent key, so a
    damaged database converges instead of merely being diagnosed. *)

type divergence = {
  view : string;
  key : Strip_relational.Value.t;  (** first result column's value *)
  expected : Strip_relational.Value.t array list;  (** recomputed, this key *)
  actual : Strip_relational.Value.t array list;  (** materialized, this key *)
}

type report = {
  audited : (string * int) list;  (** (view, recomputed rows) per view *)
  divergences : divergence list;
}

val clean : report -> bool

val audit : ?eps:float -> ?views:string list -> Strip_db.t -> report
(** Recompute every registered view definition against the current base
    data and compare with the materialized view tables.  [eps]
    (default [1e-9]) is the relative tolerance for float columns.
    [views] restricts the audit to the named views — a view with no
    installed maintenance rule is stale by design, not divergent.  Audit
    query work is metered like any other query. *)

val enqueue_repairs : Strip_db.t -> report -> int
(** Submit one update-class repair transaction per divergent key (labelled
    ["audit_repair"]): delete the key's materialized rows, insert the
    recomputed ones.  Returns the number of repairs enqueued, which it
    also counts in the database's stats; drain with {!Strip_db.run} and
    re-audit. *)

