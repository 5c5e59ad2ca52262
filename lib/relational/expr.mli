(** Scalar expressions over rows.

    Expressions appear in WHERE predicates, select lists, and SET clauses.
    Column references are written with an optional qualifier ([new.price])
    and are resolved against a schema into positional references before
    evaluation.  Comparison and boolean operators follow SQL three-valued
    logic: any comparison with [Null] is unknown ([Null]), [AND]/[OR]
    short-circuit through the Kleene tables.

    Scalar functions (e.g. the Black-Scholes pricer the PTA registers as
    [f_bs]) are looked up in a global registry by name — they are the paper's
    "application-provided functions linked into the database". *)

type unop = Neg | Not | Is_null | Is_not_null

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or
  | Concat

type t =
  | Const of Value.t
  | Col of string option * string  (** (qualifier, column name) — unresolved *)
  | Bound of int  (** resolved column position *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Call of string * t list

exception Unknown_column of string
exception Unknown_function of string

val col : ?qual:string -> string -> t
val int : int -> t
val float : float -> t
val str : string -> t
val bool : bool -> t

val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
val ( *: ) : t -> t -> t
val ( /: ) : t -> t -> t
val ( =: ) : t -> t -> t
val ( <>: ) : t -> t -> t
val ( <: ) : t -> t -> t
val ( <=: ) : t -> t -> t
val ( >: ) : t -> t -> t
val ( >=: ) : t -> t -> t
val ( &&: ) : t -> t -> t
val ( ||: ) : t -> t -> t
(** Builder combinators for writing queries in OCaml. *)

val resolve : Schema.t -> t -> t
(** Replace every [Col] with its [Bound] position.
    @raise Unknown_column on an unresolvable reference.
    @raise Schema.Ambiguous on an ambiguous unqualified reference. *)

val eval : t -> Value.t array -> Value.t
(** Evaluate a resolved expression against a row.  Ticks the
    ["predicate_eval"] meter once per call.
    @raise Unknown_column if an unresolved [Col] remains.
    @raise Unknown_function if a called function is unregistered. *)

val eval_pred : t -> Value.t array -> bool
(** Predicate evaluation: [Null] (unknown) counts as false, as in SQL
    WHERE. *)

val columns_used : t -> (string option * string) list
(** Unresolved column references, in first-occurrence order. *)

val infer_type : Schema.t -> t -> Value.ty option
(** Best-effort static type of an expression over rows of the schema;
    [None] when unknown (e.g. an unregistered function). *)

val register_fun : string -> ?ret:Value.ty -> (Value.t list -> Value.t) -> unit
(** Register (or replace) a scalar function; names are case-insensitive.
    [ret] feeds {!infer_type}. *)

val pp : Format.formatter -> t -> unit
(** SQL-ish rendering, for error messages and EXPLAIN output. *)
