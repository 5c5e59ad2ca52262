(** A minimal JSON tree and deterministic printer.

    The observability exporters (metrics snapshots, Chrome traces) must
    produce byte-identical output for identical runs, so the printer uses a
    fixed float format ([%.12g], which round-trips every value the
    simulator produces) and preserves object-key order exactly as built.
    Non-finite floats have no JSON representation and are emitted as
    [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val to_channel : out_channel -> t -> unit
(** Compact (single-line) output, trailing newline included. *)

exception Parse_error of string

val parse : string -> t
(** Parse the dialect {!to_string} emits (standard JSON restricted to
    single-byte \u escapes) — the replay path for saved chaos schedules
    and reports.  Numbers without fraction or exponent parse as [Int].
    @raise Parse_error on malformed input. *)

(** {1 Accessors} — small helpers for consuming parsed trees. *)

val member : string -> t -> t option
(** Object member by key; [None] on missing key or non-object. *)

val to_int : t -> int option
(** [Int] directly, or an integral [Float]. *)

val to_float : t -> float option
(** [Float] directly, or a widened [Int]. *)
