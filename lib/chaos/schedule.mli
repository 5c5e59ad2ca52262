(** Seeded, serializable chaos schedules.

    A schedule is a finite list of deterministic fault events
    ({!Strip_pta.Experiment.chaos_event}) in absolute simulated time,
    plus the seed and workload scale that position them.  Generation is
    pure in the seed: the same [(seed, scale)] always yields the same
    events, and the JSON form round-trips exactly — a failing schedule
    written to disk replays the identical run anywhere. *)

type t = {
  seed : int;
  scale : float;  (** workload scale factor (see {!Strip_pta.Experiment.quick}) *)
  events : Strip_pta.Experiment.chaos_event list;  (** sorted by fire time *)
}

val generate : ?scale:float -> seed:int -> unit -> t
(** 2-5 events drawn from a dedicated seeded stream — crashes,
    partitions (heals from blip-length to multi-second), drop bursts,
    and checkpoint races — landing in the middle 80% of the scaled feed.
    Default scale 0.05. *)

val generate_storage : ?scale:float -> seed:int -> unit -> t
(** 1-3 at-rest media events (WAL/checkpoint bit rot, lying fsyncs,
    disk-full windows), with a racing crash or partition in about half
    the schedules so salvage regularly runs as a double fault.  A
    separate seeded stream: {!generate}'s historical seeds stay
    byte-stable.  Default scale 0.05. *)

val to_json : t -> Strip_obs.Json.t
val of_json : Strip_obs.Json.t -> t
(** @raise Invalid_argument on a malformed tree. *)

val to_string : t -> string
val of_string : string -> t
(** @raise Invalid_argument on malformed JSON or tree. *)

val describe : t -> string
(** One-line human summary, e.g.
    ["crash@3.20s partition@7.10s(heal 1.20s)"]. *)

