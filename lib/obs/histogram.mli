(** Log-bucketed histograms for latency and staleness distributions.

    Positive samples fall into geometric buckets [[gamma^i, gamma^(i+1))]
    with the default [gamma = 2^(1/4)], bounding the relative error of any
    reported quantile by [gamma - 1] (~9%).  Zero and negative samples land
    in a dedicated underflow bucket reported as 0.  Count, sum, min and max
    are tracked exactly; everything is deterministic, so identical runs
    export identical histograms. *)

type t

val create : ?gamma:float -> unit -> t
(** [gamma] is the bucket growth factor; it must exceed 1.0.
    @raise Invalid_argument otherwise. *)

val add : t -> float -> unit
(** NaN samples are counted in the underflow bucket (they cannot be
    ordered, and dropping them silently would unbalance totals). *)

val count : t -> int

val sum : t -> float

val mean : t -> float
(** 0.0 when empty (never NaN). *)

val min_value : t -> float
(** Smallest sample seen; 0.0 when empty or when every sample was NaN
    (always finite unless an infinite sample was added). *)

val max_value : t -> float
(** Largest sample seen; 0.0 when empty or when every sample was NaN. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0, 100], by nearest rank over the buckets;
    the returned value is the bucket's geometric midpoint clamped to the
    observed [min, max].  0.0 when empty (never NaN). *)

val buckets : t -> (float * float * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending; the underflow bucket
    appears as [(0., 0., n)].  Samples satisfy [lo <= x < hi]. *)

val reset : t -> unit

val merge_into : dst:t -> t -> unit
(** Add every bucket of the source into [dst] (same [gamma] required).
    @raise Invalid_argument on mismatched [gamma]. *)

val merge : t list -> t
(** A fresh histogram holding every source's samples — per-node
    histograms (replica apply lag, lock waits) aggregate into one
    cluster distribution.  Sources are untouched; the empty list yields
    an empty default-[gamma] histogram.
    @raise Invalid_argument on mismatched [gamma]s. *)

type summary = {
  n : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summary : t -> summary

val summary_fields : summary -> (string * Json.t) list
(** The JSON members [count], [sum], [mean], [min], [max], [p50], [p90]
    and [p99], in that order. *)
