(** Logical query plans and their executor.

    The planner side of the SQL subset STRIP v2.0 supports: scans,
    selections, theta-joins, projections, grouped aggregation, ordering and
    limits.  Equi-joins pick an access path per execution, in priority
    order: merge join (both inputs are standard-table scans whose equi
    columns are covered by [Ordered] indexes — the two trees stream in key
    order), index join (the right input is a standard-table scan with any
    exactly-covering index — probe per left row), hash join otherwise;
    non-equi predicates fall back to a nested loop.

    A plan compiles into a tree of operator nodes whose schema/expression
    resolution and strategy choice are memoized.  {!run} compiles a
    one-shot plan and drops it; {!prepare} keeps the tree for a caller
    that runs one plan many times, which {!run_prepared} revalidates per
    execution by pointer comparison plus the scanned tables'
    {!Table.index_gen} — so repeated rule checks skip all name resolution
    while catalog rebuilds and later [CREATE INDEX]es are still picked
    up.  Preparing never changes meter ticks.

    Execution is push-based.  Scans, and merge joins over two ordered
    indexes, produce rows; every other operator consumes the rows its
    input pushes and pushes its own to its parent, each row as a value
    array and a record-pointer array that the producer reuses for its next
    row.  Filters and projections forward rows as they arrive and joins
    write each joined row in place, so no operator allocates per row: a
    row that reaches the root is appended to its buffer, and the result
    is that buffer cut to size.  Only ORDER BY, GROUP BY, DISTINCT and the
    build side of a hash or nested-loop join hold rows, in buffers that a
    prepared plan reuses from one execution to the next; a hash join's key
    table is sized to its build side.  Row order, and so every
    float sum a consumer folds over a result, is the same as evaluating
    each operator over its whole input in turn.

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
    group, ["sort_row"] per sorted row, ["hash_build"] per hash-join build
    row. *)

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
(** A query result with provenance: a flat, fixed-width row buffer (one
    value array of rows × arity, one record-pointer array of rows ×
    pointer slots). *)

exception Plan_error of string
(** Planning/typing failures: unknown relation, unresolvable column, ... *)

val run : Catalog.t -> env:Catalog.env -> plan -> result
(** Compile and execute a one-shot plan. *)

type prepared
(** A compiled plan, with the buffers its operators reuse from one
    execution to the next. *)

val prepare : plan -> prepared
(** Compile without executing (and without resolving any name: that
    happens, and is memoized, on the first execution). *)

val run_prepared : Catalog.t -> env:Catalog.env -> prepared -> result
(** Execute a prepared plan: the same result and meter ticks as {!run}.
    Not re-entrant: a prepared plan runs one execution at a time. *)

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
(** A result's rows grouped by key, together with how a bound table
    holds them: the layout computed for the result's descriptor and the
    constants its overridden columns take.  Keys are numbered
    [0 .. n_keys - 1] in first-seen order; within a key, rows keep result
    order.  No key or row is built per row: a key is a range of an index
    array over the result's flat buffer. *)

val all_rows : ?overrides:(string * Value.t) list -> result -> rows
(** One key (number 0) holding every row.  [overrides] force named
    columns to a constant when bound — the rule system uses this to stamp
    [commit_time] at bind time. *)

val partition : ?overrides:(string * Value.t) list -> result -> cols:string list -> rows
(** Group the result by the values of the named (unqualified) columns,
    preserving provenance.  This is the Appendix-A partitioning step
    behind [unique on]; it ticks ["partition_row"] once per row.
    [overrides] as for {!all_rows}.
    @raise Plan_error on an unknown or ambiguous column. *)

val n_keys : rows -> int

val key_length : rows -> int -> int
(** Rows in key [k]. *)

val key_value : rows -> int -> int -> Value.t
(** [key_value p k i]: the value of the [i]-th partition column in key
    [k]. *)

val bind : name:string -> rows -> int -> Temp_table.t
(** [bind ~name rows k] materializes key [k]'s rows as a named bound
    table using pointer provenance where possible (§6.1).  The table's
    layout is computed once per result descriptor and list of overridden
    names, and shared by every table bound from it.  Ticks
    ["bound_append"] once per row. *)

val append_rows : rows -> int -> Temp_table.t -> unit
(** Append key [k]'s rows to an existing bound table exactly as {!bind}
    would lay them out, each straight from the result's buffer (no
    intermediate table): the unique-transaction merge of paper §2.  A
    fully materialized destination with the same column schema (a TCB
    rebuilt by crash recovery) receives the rows by value.  Allocates
    nothing; ticks ["bound_append"] once per row.
    @raise Invalid_argument on any other destination layout. *)

val row_images : rows -> int -> Value.t array list
(** Key [k]'s rows as {!bind} then {!Temp_table.to_rows} would give them
    — the bound-row images a WAL record carries.  Ticks nothing. *)

val explain : ?cat:Catalog.t -> ?env:Catalog.env -> plan -> string
(** Multi-line plan rendering.  With [?cat] (and optionally [?env]), each
    join line is annotated with the access path the executor would choose
    right now: [[merge join via i1, i2]], [[index join via i]],
    [[hash join]] or [[nested loop]]. *)
