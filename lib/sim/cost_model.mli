(** Simulated CPU cost model.

    Converts {!Strip_relational.Meter} counter deltas into microseconds of
    simulated CPU time on the paper's reference machine (an HP-735,
    99 MHz PA-RISC).

    Two groups of constants:

    - {b Table-1 primitives} — the paper gives only the canonical total:
      a one-tuple cursor update (begin task + begin transaction + get lock +
      open/fetch/update/close cursor + release lock + commit + end task)
      costs 172 µs (≈5,814 TPS).  The split across primitives below is a
      reconstruction; see DESIGN.md.
    - {b Query-processing and rule-system costs} — not covered by Table 1.
      These were calibrated once so that the non-unique [comp_prices]
      baseline lands near the paper's 36% CPU utilization (Figure 9) and
      then held fixed for every other configuration and experiment.

    Unknown counter names cost zero but are remembered, so a typo in a
    meter name is observable via {!unknown_counters}. *)

type t

val default : t

val create : (string * float) list -> t
(** Explicit cost table (name, µs per tick). *)

val override : t -> (string * float) list -> t
(** Functional update of selected entries. *)

val cost_us : t -> string -> float
(** Cost of one tick of a counter (0 if unknown). *)

val charge : t -> (string * int) list -> float
(** Total µs for a counter delta list (as produced by
    {!Strip_relational.Meter.diff}). *)

val charge_span :
  t ->
  before:Strip_relational.Meter.snapshot ->
  after:Strip_relational.Meter.snapshot ->
  float
(** [charge t (Meter.diff before after)], bit for bit, without building the
    delta list — the engine's per-task accounting path.  Per-cell rates are
    memoized in an array on first use, so a charge allocates nothing once
    every counter it sees has been charged before. *)

val entries : t -> (string * float) list
(** All (counter, µs) entries, sorted by name. *)

val table1_entries : t -> (string * float) list
(** The Table-1 primitive subset, in the paper's order. *)

val simple_update_us : t -> float
(** The canonical one-tuple cursor-update total (the paper's 172 µs). *)

val unknown_counters : unit -> string list
(** Counter names charged so far that no cost model knew about. *)
