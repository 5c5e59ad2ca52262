(** Logical query plans and their executor.

    The planner side of the SQL subset STRIP v2.0 supports: scans,
    selections, theta-joins, projections, grouped aggregation, ordering and
    limits.  Equi-joins pick an access path per execution, in priority
    order: merge join (both inputs are standard-table scans whose equi
    columns are covered by [Ordered] indexes — the two trees stream in key
    order), index join (the right input is a standard-table scan with any
    exactly-covering index — probe per left row), hash join otherwise;
    non-equi predicates fall back to a nested loop.

    [run] compiles each plan value once (cached by physical identity) into
    a tree whose schema/expression resolution and strategy choice are
    memoized, then revalidated per execution by pointer comparison plus the
    scanned tables' {!Table.index_gen} — so repeated rule checks skip all
    name resolution while catalog rebuilds and later [CREATE INDEX]es are
    still picked up.  Caching never changes meter ticks.

    Execution tracks provenance: a result column that is a verbatim copy of
    a standard-table attribute remembers which pointer slot and offset it
    came from, so {!bind} can build bound tables with the paper's §6.1
    pointer representation instead of copying values.  Aggregates, computed
    expressions and values that flow through grouping are materialized, as
    in the paper.

    Work is metered: ["seq_row"] per scanned row, ["index_probe"] per index
    probe, ["merge_step"] per merge-join pointer advance, ["hash_probe"]
    per hash-join probe, ["join_row"] per joined row, ["row_construct"] per
    output row, ["agg_row"] per aggregated input row, ["group_init"] per
    group, ["sort_row"] per sorted row. *)

type order = Asc | Desc

type agg =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t

type select_item = {
  expr : Expr.t;
  alias : string option;  (** output column name; derived if absent *)
}

type plan =
  | Scan of { rel : string; alias : string option }
  | Filter of Expr.t * plan
  | Join of plan * plan * Expr.t option
  | Project of select_item list * plan
  | Group of {
      keys : select_item list;
      aggs : (agg * string) list;
      having : Expr.t option;
      input : plan;
    }
  | Order of (Expr.t * order) list * plan
  | Limit of int * plan
  | Distinct of plan
      (** duplicate elimination over whole rows (first occurrence kept,
          with its provenance); ticks ["hash_probe"] per input row *)

val item : ?alias:string -> Expr.t -> select_item

type result
(** Materialized query result with provenance. *)

exception Plan_error of string
(** Planning/typing failures: unknown relation, unresolvable column, ... *)

val run : Catalog.t -> env:Catalog.env -> plan -> result

val physical_index_join : bool ref
(** Testing knob, default [true].  When [false], the index join's physical
    probe is replaced by a hash-build fallback that replays the modeled
    path exactly — same ["index_probe"]/["join_row"] ticks, same output
    order (index postings are newest-first).  Strategy selection is
    unaffected, so all simulated results must be byte-identical; the
    differential tests assert this. *)

val schema_of : Catalog.t -> env:Catalog.env -> plan -> Schema.t
(** Output schema without executing (used by the rule compiler). *)

val result_schema : result -> Schema.t
val row_count : result -> int
val rows : result -> Value.t array list
(** Fully-materialized rows, in result order. *)

(** {2 Binding (§6.1) and the Appendix-A partition} *)

type rows
(** A selection of one result's rows, in result order: all of them, or
    one key's range of a {!partition}. *)

val all_rows : result -> rows

val rows_length : rows -> int

type partition
(** A result's rows grouped by the values of some columns: per-key row
    ranges over an index array.  No key is built per row; keys are
    numbered [0 .. n_keys - 1] in first-seen order. *)

val partition : result -> cols:string list -> partition
(** Group the result by the values of the named (unqualified) columns,
    preserving provenance.  This is the Appendix-A partitioning step
    behind [unique on]; it ticks ["partition_row"] once per row.
    @raise Plan_error on an unknown or ambiguous column. *)

val n_keys : partition -> int

val key_value : partition -> int -> int -> Value.t
(** [key_value p k i]: the value of the [i]-th partition column in key
    [k]. *)

val key_rows : partition -> int -> rows
(** Key [k]'s rows. *)

val bind : ?overrides:(string * Value.t) list -> name:string -> rows -> Temp_table.t
(** Materialize rows as a named bound table using pointer provenance where
    possible (§6.1).  [overrides] force named columns to a constant — the
    rule system uses this to stamp [commit_time] at bind time.  The
    table's layout is computed once per result descriptor and list of
    overridden names, and shared by every table bound from it.  Ticks
    ["bound_append"] once per row. *)

val append_rows : ?overrides:(string * Value.t) list -> rows -> Temp_table.t -> unit
(** Append rows to an existing bound table exactly as {!bind} would
    lay them out, each straight from its source row (no intermediate
    table): the unique-transaction merge of paper §2.  A fully
    materialized destination with the same column schema (a TCB rebuilt
    by crash recovery) receives the rows by value.  Ticks
    ["bound_append"] once per row.
    @raise Invalid_argument on any other destination layout. *)

val row_images : ?overrides:(string * Value.t) list -> rows -> Value.t array list
(** The rows as {!bind} then {!Temp_table.to_rows} would give them —
    the bound-row images a WAL record carries.  Ticks nothing. *)

val explain : ?cat:Catalog.t -> ?env:Catalog.env -> plan -> string
(** Multi-line plan rendering.  With [?cat] (and optionally [?env]), each
    join line is annotated with the access path the executor would choose
    right now: [[merge join via i1, i2]], [[index join via i]],
    [[hash join]] or [[nested loop]]. *)
