(** Binary serialization helpers for the durability layer.

    The write-ahead log and checkpoint snapshots share one little-endian
    wire vocabulary: fixed-width integers, IEEE-754 floats (by bit
    pattern, so round trips are exact), length-prefixed strings and lists,
    and tagged {!Strip_relational.Value.t} cells.  Decoding is strict —
    any truncation or unknown tag raises {!Decode_error}, which the WAL
    reader turns into torn-tail / corruption verdicts. *)

exception Decode_error of string

(** {1 Writers} — append to a [Buffer.t] *)

val put_u8 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
(** @raise Invalid_argument outside [0, 2^32). *)

val put_i64 : Buffer.t -> int64 -> unit
val put_int : Buffer.t -> int -> unit
val put_float : Buffer.t -> float -> unit
(** Exact (bit-pattern) float round trip. *)

val put_string : Buffer.t -> string -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val put_value : Buffer.t -> Strip_relational.Value.t -> unit
val put_values : Buffer.t -> Strip_relational.Value.t array -> unit
val put_ty : Buffer.t -> Strip_relational.Value.ty -> unit

(** {1 Readers} *)

type reader

val reader : ?pos:int -> string -> reader
val position : reader -> int
val remaining : reader -> int
val get_u8 : reader -> int
val get_u32 : reader -> int
val get_i64 : reader -> int64
val get_int : reader -> int
val get_float : reader -> float
val get_string : reader -> string
val get_list : reader -> (reader -> 'a) -> 'a list
val get_value : reader -> Strip_relational.Value.t
val get_values : reader -> Strip_relational.Value.t array
val get_ty : reader -> Strip_relational.Value.ty

(** {1 Integrity} *)

val crc32 : ?crc:int -> ?pos:int -> ?len:int -> string -> int
(** CRC-32 (IEEE) of a substring; the WAL's per-entry checksum and each
    checkpoint slot's integrity check.  [crc32 "123456789" = 0xCBF43926].
    [?crc] (default 0, the CRC of the empty string) continues a previous
    CRC: [crc32 ~crc:(crc32 a) b = crc32 (a ^ b)].
    @raise Invalid_argument if [pos]/[len] do not name a substring of [s]. *)

val crc32_update : int -> string -> int
(** [crc32_update crc s = crc32 ~crc s], positional so that a loop over
    many pieces does not box [crc] in an option at every call. *)

val crc32_combine : int -> int -> int -> int
(** [crc32_combine (crc32 a) (crc32 b) (String.length b) = crc32 (a ^ b)],
    computed from the two CRCs alone in O(log len) allocation-free steps
    (zlib's [x2nmodp]/[multmodp] form).
    @raise Invalid_argument if the length is negative. *)
