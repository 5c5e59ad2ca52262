(** Deterministic, seedable fault injection.

    STRIP is a soft real-time system: the paper's claim is that derived-data
    maintenance keeps up under a bursty feed, which is only meaningful if the
    system survives the failures such feeds provoke — aborted transactions,
    lock conflicts, deadlock victims, and user functions that raise.  The
    simulated system serializes execution so none of these occur naturally;
    this module injects them on purpose, at configurable per-site rates,
    from a private seeded PRNG stream so every run is reproducible.

    An injector is consulted at well-defined sites (see {!site}) by the rule
    manager and the database facade.  A hit either raises {!Injected} (for
    [Txn_abort] and [User_fun]) or {!Transaction.Lock_conflict} (for
    [Lock_conflict] and [Deadlock]), so recovery code exercises the same
    exception paths a real concurrent system would. *)

type site =
  | Txn_abort  (** the transaction aborts just before commit *)
  | Lock_conflict  (** a lock acquisition fails (blocked) *)
  | Deadlock  (** the transaction is chosen as a deadlock victim *)
  | User_fun  (** the rule action's user function raises *)
  | Crash  (** the whole engine dies, losing all volatile state *)
  | Partition
      (** the node is cut off from its peers but keeps running — its
          volatile state survives, only its network traffic dies *)
  | Bitrot  (** at-rest byte flip in durable WAL bytes or a checkpoint image *)
  | Fsync_lie
      (** an fsync acknowledges the write but silently drops the bytes *)
  | Disk_full  (** an append is refused by the device's byte budget *)

exception Injected of { site : site; detail : string }
(** Raised for [Txn_abort]/[User_fun] hits.  [detail] names the task or
    function at the injection point. *)

exception Crashed of { at : string }
(** Raised for [Crash] hits (and by scheduled crashes).  Unlike the soft
    faults above this is not recoverable in-place: the catcher must discard
    every volatile structure and restart from {!Durable.t}. *)

exception Partitioned of { at : string; heal_after_s : float }
(** Raised for [Partition] hits (and by scheduled partitions).  The node is
    isolated from its peers for [heal_after_s] simulated seconds but stays
    alive: the catcher must open partition windows on its links, keep the
    node running, and fence it when a peer is promoted in a higher epoch. *)

type rates = {
  txn_abort : float;
  lock_conflict : float;
  deadlock : float;
  user_fun : float;
  crash : float;
  partition : float;
  bitrot : float;
  fsync_lie : float;
  disk_full : float;
}
(** Per-site firing probabilities in [0, 1].  The storage sites
    ([bitrot], [fsync_lie], [disk_full]) are normally driven by
    scheduled chaos events rather than rates; their rates default to
    zero and, like every zero-rate site, consume no randomness. *)

val no_faults : rates

type config = {
  seed : int;  (** PRNG seed; fixed seed => identical injection decisions *)
  rates : rates;
  partition_heal_s : float;
      (** how long a rate-injected partition stays open before healing *)
}

val default_config : config
(** Seed 2025, all rates zero, 1 s partition heal. *)

val abort_only : ?seed:int -> float -> config
(** [abort_only rate] injects transaction aborts at [rate] and nothing
    else — the ISSUE's 10%-abort scenario is [abort_only 0.1]. *)

type t

val create : ?on_inject:(unit -> unit) -> config -> t
(** [on_inject] is called once per injected fault, fired or noted — how
    a database counts injections in statistics that outlive the
    injector. *)

val config : t -> config

val active : t -> bool
(** True when any rate is positive. *)

val fire : t -> site:site -> txid:int -> detail:string -> unit
(** Draw from the injector's PRNG stream for [site] (no draw is consumed
    when the site's rate is zero).  On a hit, tick ["fault_injected"],
    record the site, and raise the site's exception. *)

val note : t -> site -> unit
(** Record a fault injected by a scheduled event (not a PRNG draw):
    count the site and tick ["fault_injected"], raising nothing. *)

val injected : t -> site -> int
(** Faults injected so far at a site. *)

val total_injected : t -> int
