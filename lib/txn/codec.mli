(** Binary serialization helpers for the durability layer.

    The write-ahead log and checkpoint snapshots share one little-endian
    wire vocabulary: fixed-width integers, IEEE-754 floats (by bit
    pattern, so round trips are exact), length-prefixed strings and lists,
    and tagged {!Strip_relational.Value.t} cells.  Decoding is strict —
    any truncation or unknown tag raises {!Decode_error}, which the WAL
    reader turns into torn-tail / corruption verdicts.  A checking reader
    runs the same grammar without building what it reads, so integrity
    scans of stored bytes cost no allocation per byte. *)

exception Decode_error of string

(** {1 Writers} — append to a [Buffer.t] *)

val put_u8 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
(** @raise Invalid_argument outside [0, 2^32). *)

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

val reader : ?pos:int -> ?len:int -> ?check:bool -> string -> reader
(** A reader over the [len] bytes of [s] from [pos] (default: the rest of
    [s]); reading past them raises {!Decode_error}.  With [~check:true]
    (default false) it is verdict-only: every tag, length and bounds
    check still runs and fails as it would when decoding, but nothing is
    built — {!get_string} returns [""], {!get_float} [0.0],
    {!get_int} [0], {!get_value} [Null], {!get_values} [[||]] and
    {!get_list} [[]] (after running its element reader once per
    element), so a checking reader allocates nothing.
    @raise Invalid_argument if [pos]/[len] do not name a substring of [s]. *)

val seek : reader -> pos:int -> len:int -> unit
(** Re-aim the reader at [len] bytes of the same string from [pos] — one
    reader walks many frames of a log in place.
    @raise Invalid_argument if the range is not inside the string. *)

val position : reader -> int

val remaining : reader -> int
(** Bytes left before the end of the reader's range. *)

val get_u8 : reader -> int
val get_u32 : reader -> int
val get_int : reader -> int
val get_float : reader -> float
val get_string : reader -> string
val get_list : reader -> (reader -> 'a) -> 'a list
(** A count larger than {!remaining} raises {!Decode_error} before any
    element is read: every element must take at least one byte.  The
    same holds for {!get_values}. *)

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

val crc32_sub : int -> string -> int -> int -> int
(** [crc32_sub crc s pos len = crc32 ~crc ~pos ~len s], positional so that
    a loop over many pieces (every frame of a log, checked in place) does
    not box its arguments in options at every call.
    @raise Invalid_argument if [pos]/[len] do not name a substring of [s]. *)

val crc32_combine : int -> int -> int -> int
(** [crc32_combine (crc32 a) (crc32 b) (String.length b) = crc32 (a ^ b)],
    computed from the two CRCs alone in O(log len) allocation-free steps
    (zlib's [x2nmodp]/[multmodp] form).
    @raise Invalid_argument if the length is negative. *)
