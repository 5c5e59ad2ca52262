(** The chaos explorer: run seeded fault schedules against a replicated,
    durable STRIP experiment, check invariants, and shrink failures.

    Each schedule drives one {!Strip_pta.Experiment.run} — two replicas,
    a lossy shipping link, the unique-on-comp rule, verification on —
    with the schedule's events armed as deterministic faults.  After the
    run, five invariants are checked:

    - [auditor_clean]: the final consistency audit finds no divergence
      the repair pass could not fix;
    - [recovery_converges]: the maintained view equals a from-scratch
      recomputation, and every replica ends at the primary's final LSN;
    - [single_primary_per_epoch]: the epoch history is strictly
      increasing — no two primaries ever shared a term;
    - [no_acked_commit_lost]: every promotion's acked frontier (the LSN
      the elected winner had applied) is still inside the final log;
    - [uq_exactly_once]: no unique transaction was dead-lettered.

    A sixth, opt-in invariant — [staleness_slo] — arms when the run
    carries staleness SLO objectives ([?slo]): any view whose objective
    was violated fails the schedule, so SLO regressions shrink to minimal
    fault reproducers like any other violation.

    Storage-fault schedules ({!Schedule.generate_storage}, or any
    schedule carrying media events) arm three more:

    - [no_silent_corruption]: every injected media fault left the
      [Outstanding] ledger state — something (scrub, ship-time
      verification, or recovery) detected it before the end of the run;
    - [detected_within_bound]: every injected media fault whose bytes
      were still retained left [Outstanding] within
      [ceil (retained bytes / Scrub.budget) + 1] scrub passes of its
      injection — the paced scrubber's round-robin cycle reaches every
      retained byte within that many passes;
    - [salvage_converges]: the durable media verifies clean at the end —
      the WAL frame chain parses end-to-end and every retained
      checkpoint slot passes its CRC.

    A failing schedule can be {!shrink}ed to a 1-minimal reproducer and
    serialized ({!Schedule.to_json}) for replay via
    [strip-cli chaos --replay]. *)

type violation = { invariant : string; detail : string }

type outcome = {
  schedule : Schedule.t;
  violations : violation list;  (** empty = all invariants held *)
  n_crashes : int;
  n_partitions : int;
  n_failovers : int;
  final_epoch : int;
  lost_bytes : int;
  fenced_bytes : int;
  makespan_s : float;
  storage : Strip_pta.Experiment.storage_metrics option;
      (** present iff the run armed the storage-fault substrate *)
  registry : Strip_obs.Metrics.row list;
      (** the run's metrics-registry snapshot, which holds the rest of
          the storage report ({!Strip_pta.Report.storage_json}) *)
}

val check :
  ?extra:(Strip_pta.Experiment.metrics -> violation list) ->
  Strip_pta.Experiment.metrics ->
  violation list
(** Evaluate the invariants against one run's metrics, including
    [staleness_slo] for any SLO report the run produced.  [extra] appends
    caller-defined checks (used by tests to plant an unsatisfiable
    invariant and watch the shrinker work). *)

val run_schedule :
  ?extra:(Strip_pta.Experiment.metrics -> violation list) ->
  ?slo:Strip_obs.Slo.objective list ->
  ?storage:Strip_pta.Experiment.storage_cfg ->
  Schedule.t ->
  outcome
(** One deterministic experiment under the schedule; task ids are reset
    first so identical schedules replay byte-identically in-process.
    [slo] arms a fresh staleness monitor for the run (fresh per call, so
    shrinker trials never share violation state).  [storage] overrides
    the storage substrate config — e.g. a scrubber-free
    [{ scrub_every = None; retain = 2 }] de-arms detection, which is how
    the planted-bug hunt makes [no_silent_corruption] fire; without it a
    schedule carrying media events auto-enables
    {!Strip_pta.Experiment.default_storage}. *)

val shrink :
  ?extra:(Strip_pta.Experiment.metrics -> violation list) ->
  ?slo:Strip_obs.Slo.objective list ->
  ?storage:Strip_pta.Experiment.storage_cfg ->
  Schedule.t ->
  outcome
(** Delta-debug a failing schedule down to a 1-minimal event list (every
    remaining event is necessary for the violation) and return the final
    reproducer's outcome.  A schedule that does not fail is returned
    re-run but unshrunk. *)

val explore :
  ?extra:(Strip_pta.Experiment.metrics -> violation list) ->
  ?slo:Strip_obs.Slo.objective list ->
  ?scale:float ->
  seed:int ->
  schedules:int ->
  unit ->
  outcome list
(** Generate and run [schedules] schedules seeded [seed, seed+1, ...] at
    [scale] (default 0.05). *)

val explore_storage :
  ?extra:(Strip_pta.Experiment.metrics -> violation list) ->
  ?slo:Strip_obs.Slo.objective list ->
  ?storage:Strip_pta.Experiment.storage_cfg ->
  ?scale:float ->
  seed:int ->
  schedules:int ->
  unit ->
  outcome list
(** Like {!explore} but over {!Schedule.generate_storage} schedules, so
    every run carries at least one at-rest media fault and the storage
    invariants are armed. *)

val total_violations : outcome list -> int

val outcome_json : outcome -> Strip_obs.Json.t
val quarantine_report : outcome -> Schedule.t -> Strip_obs.Json.t
(** A storage violation's report: the outcome, media ledger included,
    under ["outcome"] and the shrunk reproducer under ["reproducer"]. *)

val reproducer_of_string : string -> Schedule.t
(** Read a file as [strip-cli chaos --replay] does: a {!quarantine_report}
    yields its ["reproducer"], anything else is a bare schedule.
    @raise Invalid_argument or {!Strip_obs.Json.Parse_error}. *)

val summary_json : seed:int -> scale:float -> outcome list -> Strip_obs.Json.t
val print_outcome : outcome -> unit
val print_summary : outcome list -> unit
