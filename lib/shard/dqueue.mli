(** The distributed unique-transaction queue (owner side).

    The sharded analogue of STRIP's unique-transaction hash (paper §6.3):
    where a single primary merges same-key rule firings into one queued
    batch, the composite owner merges same-key {e partial deltas} arriving
    from many shards into one pending entry, and fires the maintenance
    action once per key rather than once per arrival.

    Idempotence: each source numbers the partials it sends this owner
    from 1, so the queue keeps one {e watermark} per source: a [floor]
    (every seq up to it is merged) plus the few merged seqs above it,
    which arrived ahead of a gap.  A resent or duplicated partial is a
    {!verdict.Duplicate} and changes nothing.  Merging is commutative
    addition (DBSP linearity of the composite rules), so arrival order
    across shards cannot change the merged total, and the entry keeps
    its {e first} arrival's [created_at] so latency accounting measures
    the oldest unapplied contribution.

    The queue is volatile; the owner's WAL ([Shard_in] / [Shard_release] /
    [Shard_state] records) is the durable truth, and
    {!Strip_shard.Coordinator} rebuilds the queue from it at recovery via
    {!restore}. *)

type t

type verdict =
  | Duplicate  (** [(src, seq)] already merged — no effect *)
  | Merged  (** folded into an existing pending entry for the key *)
  | Fresh  (** first pending contribution for the key *)

val create : unit -> t

val offer :
  t ->
  src:int ->
  seq:int ->
  key:Strip_relational.Value.t list ->
  delta:float ->
  created_at:float ->
  verdict
(** Dedup by [(src, seq)], then merge into [key]'s pending entry.  An
    in-order arrival allocates nothing for the dedup.
    @raise Invalid_argument if [src < 0] or [seq < 1]. *)

val peek : t -> key:Strip_relational.Value.t list -> (float * float) option
(** Current [(merged delta, first created_at)] for [key] —
    non-destructive, so an aborted apply leaves the entry intact. *)

val remove : t -> key:Strip_relational.Value.t list -> unit
(** Retire [key]'s pending entry (the durable-release path); no-op if
    absent. *)

val pending_keys : t -> Strip_relational.Value.t list list
(** Keys with unapplied merged deltas, first-arrival order. *)

val n_pending : t -> int

val watermarks : t -> (int * int * int list) list
(** [(src, floor, above)] per source with a merged seq, ascending
    [src]: the merged seqs are [1 .. floor] and [above] (ascending, each
    above [floor + 1], empty once every gap has filled).  Exported into
    [Shard_state] snapshots. *)

val pending_list : t -> (Strip_relational.Value.t list * float * float) list
(** Pending [(key, delta, created_at)] entries, first-arrival order. *)

val restore :
  t ->
  watermarks:(int * int * int list) list ->
  pending:(Strip_relational.Value.t list * float * float) list ->
  unit
(** Replace the queue's state wholesale (crash recovery); the counters
    are untouched.  [watermarks] as {!watermarks} returns them;
    [pending] in first-arrival order.
    @raise Invalid_argument if any [src] in [watermarks] is negative;
    the queue is then unchanged. *)

(** {1 Counters} *)

val n_offered : t -> int
val n_duplicates : t -> int
val n_merged : t -> int
val n_fresh : t -> int
val n_applied : t -> int
(** Entries retired through {!remove}. *)
