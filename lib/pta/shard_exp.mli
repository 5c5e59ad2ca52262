(** Former entry point of sharded experiments.  Sharded and unsharded
    runs now share {!Experiment.run}. *)

val dispatch : Experiment.config -> Experiment.metrics
(** The same function as {!Experiment.run}.  It remains only because
    the [bench/perf] harness calls it under this name. *)
