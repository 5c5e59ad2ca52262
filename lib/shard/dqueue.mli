(** The distributed unique-transaction queue (owner side).

    The sharded analogue of STRIP's unique-transaction hash (paper §6.3):
    where a single primary merges same-key rule firings into one queued
    batch, the composite owner merges same-key {e partial deltas} arriving
    from many shards into one pending entry, and fires the maintenance
    action once per key rather than once per arrival.

    Idempotence: every arrival is first checked against the set of
    [(src, seq)] identities already merged — a resent or duplicated
    partial is a {!verdict.Duplicate} and changes nothing.  Merging is
    commutative addition (DBSP linearity of the composite rules), so
    arrival order across shards cannot change the merged total, and the
    entry keeps its {e first} arrival's [created_at] so latency
    accounting measures the oldest unapplied contribution.

    The queue is volatile; the owner's WAL ([Shard_in] / [Shard_release] /
    [Shard_state] records) is the durable truth, and
    {!Strip_shard.Coordinator} rebuilds the queue from it at recovery via
    {!restore}.

    Representation: the dedup set is one ascending [int] run of merged
    [seq]s per source shard, in a growable array indexed by [src] (so
    memory grows with the largest source id, and ids must be
    non-negative).  A membership test is a binary search of one run.  An
    arrival above its run's last element — the in-order case — appends
    in amortised O(1); a reship or reordered arrival below it is a
    binary search plus an insert that shifts the run's tail.
    {!seen_list} walks the runs in [src] order, so exporting the set for
    a [Shard_state] snapshot is linear in its size, with no sort. *)

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
(** Dedup by [(src, seq)], then merge into [key]'s pending entry.
    @raise Invalid_argument if [src < 0]. *)

val peek : t -> key:Strip_relational.Value.t list -> (float * float) option
(** Current [(merged delta, first created_at)] for [key] —
    non-destructive, so an aborted apply leaves the entry intact. *)

val remove : t -> key:Strip_relational.Value.t list -> unit
(** Retire [key]'s pending entry (the durable-release path); no-op if
    absent. *)

val pending_keys : t -> Strip_relational.Value.t list list
(** Keys with unapplied merged deltas, first-arrival order. *)

val n_pending : t -> int

val seen_list : t -> (int * int) list
(** Merged [(src, seq)] identities, ascending (the order of [compare]
    on the pairs) — the dedup set, exported into [Shard_state]
    snapshots.  Linear in the set's size: the runs are already sorted. *)

val pending_list : t -> (Strip_relational.Value.t list * float * float) list
(** Pending [(key, delta, created_at)] entries, first-arrival order. *)

val restore :
  t ->
  seen:(int * int) list ->
  pending:(Strip_relational.Value.t list * float * float) list ->
  unit
(** Replace the queue's state wholesale (crash recovery); the counters
    are untouched.  [seen] may be unsorted and hold duplicates; an
    ascending list (what {!seen_list} returns) restores in linear time.
    [pending] is taken in first-arrival order.
    @raise Invalid_argument if any [src] in [seen] is negative; the
    queue is then unchanged. *)

(** {1 Counters} *)

val n_offered : t -> int
val n_duplicates : t -> int
val n_merged : t -> int
val n_fresh : t -> int
val n_applied : t -> int
(** Entries retired through {!remove}. *)
