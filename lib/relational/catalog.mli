(** Database catalog: names to relations.

    Standard tables are global.  Temporary tables (transition and bound
    tables) are visible only to the task that owns them; the paper notes
    that "whenever a triggered task tries to access a table, its bound table
    list must be checked as well as the database catalog" (§6.3) — that
    bound-table list is the [env] argument threaded through resolution. *)

type relation =
  | Std of Table.t
  | Tmp of Temp_table.t

type env = (string * Temp_table.t) list
(** Task-local bound/transition tables, checked before the catalog. *)

type t

val create : unit -> t

val create_table : t -> name:string -> schema:Schema.t -> Table.t
(** @raise Invalid_argument if the name is taken. *)

val drop_table : t -> string -> unit
(** @raise Not_found if absent. *)

val find_table : t -> string -> Table.t option
(** Standard tables only. *)

val table_exn : t -> string -> Table.t
(** @raise Not_found if absent or not a standard table. *)

val resolve : t -> env:env -> string -> relation option
(** Bound-table list first, then the catalog. *)

val resolve_exn : t -> env:env -> string -> relation

val relation_schema : relation -> Schema.t
val relation_name : relation -> string

val tables : t -> Table.t list
(** All standard tables, in creation order. *)
