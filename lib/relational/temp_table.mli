(** Temporary tables: intermediate results, transition tables, bound tables
    (paper §6.1).

    A temporary tuple does not copy attribute values.  It stores one pointer
    per standard record that contributes at least one attribute, plus the
    materialized values of aggregate/computed/timestamp columns, which exist
    nowhere else.  A per-table static map records, for every column, whether
    to follow pointer slot [s] at offset [o] or to read materialized cell
    [m].

    Every stored pointer pins its record ({!Record.pin}), so records retired
    by later updates remain readable until the temporary table is itself
    retired — this is exactly the mechanism that lets a rule action see the
    database state of condition-evaluation time. *)

type provenance =
  | From_record of int * int
      (** [(slot, offset)]: follow source pointer [slot], read attribute
          [offset] of that record *)
  | Computed of int  (** read materialized cell [idx] *)

type t

val create : name:string -> schema:Schema.t -> nslots:int -> prov:provenance array -> t
(** [prov] must have one entry per schema column; materialized cells must be
    numbered densely from 0.  @raise Invalid_argument otherwise. *)

val create_materialized : name:string -> schema:Schema.t -> t
(** Convenience: no pointer slots, every column materialized. *)

val name : t -> string
val schema : t -> Schema.t
val cardinal : t -> int
val slots : t -> int
val static_map : t -> provenance array

val same_static_map : t -> provenance array -> bool
(** Does this table's static map equal [prov]?  Physical equality is checked
    first, so layouts shared via {!Strip_rules} transition caching compare in
    O(1). *)

type row
(** One temporary tuple. *)

val append : t -> srcs:Record.t array -> mats:Value.t array -> unit
(** Add a tuple; pins each source record.
    @raise Invalid_argument on arity mismatch with the static map. *)

val append_values : t -> Value.t array -> unit
(** Add a fully-materialized tuple (table must have zero slots). *)

(** {2 Bind layouts}

    How the rows of one query-result shape land in a bound table: the
    table's schema and static map, plus where each pointer slot and
    materialized cell is read from in a source row (its record pointers
    [srcs] and column values [vals]).  The query layer computes one per
    result descriptor, so binding a result and merging it into a queued
    TCB copy each source row straight into the destination arena. *)

type layout

val layout :
  schema:Schema.t ->
  prov:provenance array ->
  slot_of:int array ->
  cell_of:int array ->
  layout
(** Bound slot [s] points at source slot [slot_of.(s)]; materialized cell
    [m] copies source column [cell_of.(m)], or constant [-1 - cell_of.(m)]
    of the [consts] given per append when negative.
    @raise Invalid_argument as {!create} does, or if [cell_of] has not one
    entry per materialized cell. *)

val of_layout : name:string -> ?rows:int -> layout -> t
(** An empty table with the layout's schema and static map (shared, not
    copied), its arenas sized for exactly [rows] tuples (default 0: no
    arena until the first append). *)

val append_from :
  t ->
  layout ->
  srcs:Record.t array ->
  src_at:int ->
  vals:Value.t array ->
  val_at:int ->
  consts:Value.t array ->
  unit
(** Append the tuple that one source row makes under [layout]: the row
    whose record pointers start at [srcs.(src_at)] and whose column
    values start at [vals.(val_at)] (a row of a flat query result).  Ticks
    ["bound_append"] once.  When the table has the layout (schema and
    static map), the source pointers are pinned and stored; when the table
    is fully materialized with the same column schema (a TCB rebuilt by
    crash recovery), the row is copied by value.
    @raise Invalid_argument on a retired table or any other layout. *)

val layout_row :
  layout ->
  srcs:Record.t array ->
  src_at:int ->
  vals:Value.t array ->
  val_at:int ->
  consts:Value.t array ->
  Value.t array
(** The values of the tuple {!append_from} would append, as {!row_values}
    reads them back.  Ticks nothing. *)

val tick_appends : int -> unit
(** Tick ["bound_append"] [n] times without appending: the charge of a
    bind that the caller performs as a direct append instead. *)

val get : t -> row -> int -> Value.t
(** Column value, through the static map. *)

val row_values : t -> row -> Value.t array
(** All column values of a tuple, materialized into a fresh array. *)

val row_source : t -> row -> int -> Record.t
(** [row_source t row slot]: the record in pointer slot [slot] of this
    tuple.  (Tuples live in their table's arena, so reading a slot needs
    the table.) *)

val read_row : t -> row -> vals:Value.t array -> srcs:Record.t array -> unit
(** Write a tuple's column values into [vals] and its record pointers
    into [srcs] (at least {!slots} long), allocating nothing. *)

val iter : t -> (row -> unit) -> unit
(** Iterate tuples in insertion order. *)

val fold : t -> init:'a -> f:('a -> row -> 'a) -> 'a

val absorb : t -> t -> unit
(** [absorb dst src] moves every tuple of [src] to the end of [dst] — how
    overload shedding coalesces one queued TCB into another.  When the layouts (schema and
    static map) match, pins transfer with the tuples; when [dst] is fully
    materialized (no pointer slots, as in a TCB rebuilt by crash recovery)
    and only the column schemas match, the rows are copied by value and
    [src]'s pins are released.  Either way [src] is emptied (but not
    retired).
    @raise Invalid_argument on any other layout mismatch. *)

val can_absorb : t -> t -> bool
(** [can_absorb dst src]: {!absorb}[ dst src] would succeed.  A
    pointer-carrying [dst] cannot take a fully materialized [src]. *)

val retire : t -> unit
(** Drop the table's contents, unpinning every source record.  Idempotent.
    Called when the task owning a bound table finishes (§6.3). *)

val retired : t -> bool

val to_rows : ?limit:int -> t -> Value.t array list
(** Materialized snapshot, insertion order; only the first [limit] rows
    when given. *)
