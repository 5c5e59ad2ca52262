(** Operation metering.

    Every layer of the engine ticks named counters as it performs primitive
    operations (lock acquisitions, cursor fetches, index probes, Black-Scholes
    evaluations, ...).  The discrete-event simulator converts counter deltas
    into simulated CPU time through {!Strip_sim.Cost_model}, and the benchmark
    harness reports them directly.

    Counters are global and intentionally cheap: hot paths resolve a name to
    a {!cell} once and then tick by array index — no string hashing per
    operation.  They carry no semantics of their own — the set of counter
    names in use is documented by {!Strip_sim.Cost_model.default}. *)

type snapshot
(** Snapshot of all counters at a point in time; immutable unless passed
    to {!snapshot_into}. *)

type cell
(** Pre-resolved handle to a named counter; ticking through a cell skips the
    per-operation name lookup. *)

val counter : string -> cell
(** Resolve (registering if needed) the cell for counter [name]. *)

val tick_c : cell -> unit
(** Increment a pre-resolved counter by one; free when {!enabled} is off. *)

val tick_cn : cell -> int -> unit
(** Increment a pre-resolved counter by [n] ([n >= 0]). *)

val tick : string -> unit
(** [tick name] increments counter [name] by one. *)

val tick_n : string -> int -> unit
(** [tick_n name n] increments counter [name] by [n] ([n >= 0]). *)

val get : string -> int
(** Current value of a counter (0 if never ticked). *)

val reset : unit -> unit
(** Reset every counter to zero. *)

val snapshot : unit -> snapshot
(** Capture the current value of every counter. *)

val snapshot_into : snapshot -> snapshot
(** [snapshot_into buf] is {!snapshot}[ ()], written into [buf] and
    returned when [buf] has room for exactly the registered counters, and
    a fresh snapshot otherwise.  For a per-task loop that owns [buf]:
    [buf]'s earlier contents are overwritten, so no one else may still
    read them. *)

val diff : snapshot -> snapshot -> (string * int) list
(** [diff before after] lists counters whose value changed between the two
    snapshots, with the (positive) delta, sorted by counter name. *)

val charge_diff :
  snapshot -> snapshot -> rates:float array -> missing:(cell -> float) -> float
(** [charge_diff before after ~rates ~missing] is
    [List.fold_left (fun a (n, d) -> a +. rate n *. float d) 0.0 (diff before after)]
    computed without building the intermediate list, where a counter's
    rate is [rates.(cell_id c)], or [missing c] when [rates] has no entry
    for it or holds [nan] (the caller memoizes that answer into [rates]
    for the next call).  The additions happen in the same (name-sorted)
    order as the fold, so the result is bit-identical — this sits on the
    engine's per-task accounting path, where reading a memoized rate
    allocates nothing. *)

val name_of_cell : cell -> string
(** The name a cell was registered under. *)

val cell_id : cell -> int
(** Dense small-integer id of a cell (registration order), for callers that
    memoize per-cell data in arrays. *)

val fold : (string -> int -> 'a -> 'a) -> 'a -> 'a
(** Fold over all live counters. *)

val enabled : bool ref
(** Master switch; metering is on by default.  Turning it off makes [tick]
    a no-op, which the micro-benchmarks use to measure raw engine speed. *)
