(** Secondary indexes over standard tables.

    Per paper §6.1, tables can be indexed with either a hash structure or a
    red-black tree.  Keys are tuples of column values; several records may
    share a key (multi-map).  Index maintenance is driven by {!Table}: every
    record link/unlink is reflected here.

    Probes tick the ["index_probe"] meter; maintenance ticks
    ["index_update"]. *)

type kind = Hash | Ordered

type t

val create : ?size_hint:int -> name:string -> kind:kind -> cols:int array -> unit -> t
(** [cols] are the key column positions within the table schema, in key
    order.  [size_hint] pre-sizes a hash store (avoiding rehash churn when
    the index is created over an already-populated table); it does not
    affect behaviour. *)

val name : t -> string
val kind : t -> kind
val key_cols : t -> int array

val add : t -> Record.t -> unit

val remove : t -> Record.t -> unit
(** Removes this exact record (by rid) from its key's posting list. *)

val replace : t -> old:Record.t -> Record.t -> unit
(** [replace t ~old r] is [remove t old; add t r]: the same posting lists
    ([r] first, then the others in their order), counts and
    ["index_update"] ticks (two).  When [r] keeps [old]'s key columns in a
    hash index it costs one probe instead of two; a key change, and any
    ordered index, take the [remove] + [add] path. *)

val lookup : t -> Value.t list -> Record.t list
(** All records with exactly this key, unordered. *)

val range : t -> ?lo:Value.t list -> ?hi:Value.t list -> (Record.t -> unit) -> unit
(** Ordered-index range scan, inclusive bounds; ascending key order.
    @raise Invalid_argument on a hash index. *)

val ordered_entries : t -> (Value.t list * Record.t list) list
(** All (key, postings) pairs in ascending key order, postings oldest-first.
    One ["index_probe"] tick for the whole scan (the merge-join access path).
    @raise Invalid_argument on a hash index. *)

val compare_keys : Value.t list -> Value.t list -> int
(** The key ordering used by ordered indexes (lexicographic
    {!Value.compare}). *)

val cardinal : t -> int
(** Number of indexed records. *)

val distinct_keys : t -> int
