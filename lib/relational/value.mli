(** Typed SQL values.

    STRIP v2.0 supported fixed-length fields only; we model the four scalar
    types the program-trading schema needs plus [Null].  Arithmetic follows
    SQL conventions: integer operations stay integral, mixing an integer with
    a float promotes to float, and any operation on [Null] yields [Null].
    Comparisons involving [Null] are unknown and surface as [None]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = TBool | TInt | TFloat | TStr
(** Column types.  [Null] inhabits every type. *)

val ty_name : ty -> string
(** Lowercase SQL-ish name of a type ("int", "float", "bool", "string"). *)

val ty_of_string : string -> ty option
(** Inverse of {!ty_name}; also accepts the synonyms accepted by the SQL
    parser ("integer", "real", "double", "text", "varchar", "boolean"). *)

val type_of : t -> ty option
(** Runtime type of a value; [None] for [Null]. *)

val conforms : t -> ty -> bool
(** [conforms v ty] is true if [v] may be stored in a column of type [ty]
    ([Null] conforms to everything, [Int] conforms to [TFloat]). *)

val equal : t -> t -> bool
(** Structural equality with numeric coercion ([Int 1] equals [Float 1.]).
    [Null] equals [Null] here — use {!cmp_sql} for SQL three-valued logic. *)

val compare : t -> t -> int
(** Total order used by indexes and sorting: [Null] first, then booleans,
    then numbers (compared numerically across [Int]/[Float]), then strings. *)

val cmp_sql : t -> t -> int option
(** SQL comparison: [None] when either side is [Null] or the types are
    incomparable, otherwise [Some c] with [c] as {!compare}. *)

val hash : t -> int
(** Hash compatible with {!equal} (numeric coercion included). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Arithmetic with SQL promotion rules.  Division by zero raises
    [Division_by_zero] for integers and yields IEEE infinities for floats.
    @raise Type_error on non-numeric operands. *)

val neg : t -> t

val concat : t -> t -> t
(** String concatenation; numeric operands are rendered with {!to_string}. *)

exception Type_error of string
(** Raised by arithmetic and conversions on ill-typed operands. *)

val to_float : t -> float
(** @raise Type_error unless the value is numeric. *)

val to_int : t -> int
(** @raise Type_error unless the value is an [Int]. *)

val to_string : t -> string
(** Display form: [Null] prints as "NULL", floats with enough digits to
    round-trip. *)

val is_null : t -> bool

val pp : Format.formatter -> t -> unit
