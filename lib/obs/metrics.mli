(** A metrics registry: named counters, gauges and histograms with labels,
    snapshotted to JSON or CSV.

    Components either hold a direct instrument ({!counter}, {!gauge},
    {!histogram}) or register a {e probe} — a closure polled at snapshot
    time — over state they already maintain ({!probe_int}, {!probe_float},
    {!probe_hist}).  {!probe_family} covers label sets only known at
    runtime (e.g. one staleness histogram per derived table).

    Identity is the pair (name, canonicalised labels); registering it twice
    raises {!Duplicate}.  Snapshots are sorted by that identity, so exports
    are deterministic. *)

type labels = (string * string) list

exception Duplicate of string
(** The offending ["name{k=v,...}"] identity. *)

type t

val create : unit -> t

(** {1 Direct instruments} *)

type counter

val counter : t -> ?labels:labels -> string -> counter
val inc : ?n:int -> counter -> unit

type gauge

val gauge : t -> ?labels:labels -> string -> gauge
val set : gauge -> float -> unit

val histogram : t -> ?labels:labels -> string -> Histogram.t
(** Create, register and return a histogram instrument. *)

(** {1 Probes (polled at snapshot time)} *)

val probe_int : t -> ?labels:labels -> string -> (unit -> int) -> unit
val probe_float : t -> ?labels:labels -> string -> (unit -> float) -> unit
val probe_hist : t -> ?labels:labels -> string -> (unit -> Histogram.t) -> unit

type family_sample =
  | Sample_int of int
  | Sample_float of float
  | Sample_hist of Histogram.t

val probe_family : t -> string -> (unit -> (labels * family_sample) list) -> unit
(** A metric whose label sets appear during the run; the closure returns
    every current (labels, sample) pair.  Collisions with other rows are
    detected at snapshot time. *)

(** {1 Snapshots} *)

type datum =
  | Int of int
  | Float of float
  | Histo of Histogram.summary * (float * float * int) list
      (** summary plus [(lo, hi, count)] buckets *)

type row = { name : string; labels : labels; datum : datum }

val snapshot : t -> row list
(** Current value of every instrument and probe, sorted by (name, labels);
    two integer label values compare as numbers, so [shard=2] sorts
    before [shard=10].
    @raise Duplicate if a probe family collides with another row. *)

val find : row list -> ?labels:labels -> string -> datum option
(** Convenience lookup in a snapshot. *)

val find_all :
  row list -> ?labels:labels -> ?across:string -> string -> datum list
(** Every row named [name] whose labels are [labels], the label [across]
    aside unless [labels] names it: with [~across:"shard"], one row per
    shard of a {!tagged} snapshot. *)

val tagged : string -> row list list -> row list
(** Several registries' snapshots as one: the rows of the [i]th gain the
    label [(key, string_of_int i)], kept canonical, and the result is
    sorted as {!snapshot} sorts it. *)

val json_of_rows : ?buckets:bool -> row list -> Json.t
(** [{"metrics": [{"name", "labels", "type", ...}]}]; histograms carry
    count/sum/mean/min/max/p50/p90/p99 and, when [buckets] (default true),
    the raw bucket triples. *)

val csv_of_rows : row list -> string
(** Header [name,labels,type,value,count,sum,mean,min,max,p50,p90,p99];
    labels rendered as [k=v] pairs joined with [;]. *)
