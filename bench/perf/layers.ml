(* Per-layer metrics: counts from every trial (they repeat exactly for a
   seed), probe timings and setup steps from the traced trial.  A value
   is [None] where the layer did no work its ratio could be taken over
   (e.g. reships per partial on an unsharded run). *)

type source =
  | Per_quote of string  (** a count divided by the feed's quotes *)
  | Count of string  (** a count as is *)
  | Ratio of string * string  (** one count over another *)
  | Probe  (** a probe timing, keyed by the metric's own name *)
  | Step of string  (** seconds in one setup step of the traced trial *)

type def = { name : string; unit : string; source : source }

let d name unit source = { name; unit; source }
let pq name counter = d name "1/quote" (Per_quote counter)

let all =
  [
    pq "relational.index_probes_per_quote" "index_probe";
    pq "relational.index_updates_per_quote" "index_update";
    pq "relational.join_rows_per_quote" "join_row";
    pq "relational.merge_steps_per_quote" "merge_step";
    pq "relational.hash_probes_per_quote" "hash_probe";
    pq "relational.rows_constructed_per_quote" "row_construct";
    pq "relational.agg_rows_per_quote" "agg_row";
    d "relational.view_recompute_ns_per_row" "ns" Probe;
    d "relational.index_lookup_ns" "ns" Probe;
    d "relational.point_read_ns" "ns" Probe;
    pq "core.rule_checks_per_quote" "rule_check";
    pq "core.bound_rows_per_quote" "bound_append";
    pq "core.partition_rows_per_quote" "partition_row";
    pq "core.firings_per_quote" "n_firings";
    pq "core.merges_per_quote" "n_merges";
    d "core.recomputes_per_firing" "ratio" (Ratio ("n_recompute", "n_firings"));
    pq "finance.bs_evals_per_quote" "bs_eval";
    d "finance.bs_ns_per_option" "ns" Probe;
    pq "sim.tasks_per_quote" "begin_task";
    pq "sim.context_switches_per_quote" "context_switches";
    pq "sim.sched_ops_per_quote" "sched_op";
    d "sim.charge_ns_per_task" "ns" Probe;
    d "sim.retries" "count" (Count "n_retries");
    d "sim.dead_letters" "count" (Count "n_dead_letters");
    pq "txn.wal_bytes_per_quote" "wal_bytes";
    pq "txn.wal_appends_per_quote" "wal_append";
    pq "txn.fsyncs_per_quote" "wal_fsync";
    d "txn.wal_encode_ns_per_byte" "ns" Probe;
    d "txn.wal_decode_ns_per_byte" "ns" Probe;
    d "txn.wal_verify_ns_per_byte" "ns" Probe;
    d "txn.lock_waits" "count" (Count "n_lock_waits");
    d "core.checkpoint_rows" "count" (Count "checkpoint_row");
    d "core.redo_ops" "count" (Count "redo_ops");
    d "core.scrub_bytes_per_wal_byte" "ratio" (Ratio ("scrub_bytes", "wal_bytes"));
    d "core.audit_divergences" "count" (Count "audit_divergences");
    d "core.checkpoint_capture_ns_per_row" "ns" Probe;
    d "core.checkpoint_encode_ns_per_byte" "ns" Probe;
    d "core.checkpoint_decode_ns_per_byte" "ns" Probe;
    d "core.recover_ns_per_redo_op" "ns" Probe;
    d "core.audit_ns_per_row" "ns" Probe;
    d "repl.shipped_bytes_per_wal_byte" "ratio" (Ratio ("bytes_shipped", "wal_bytes"));
    pq "repl.segments_per_quote" "segments_sent";
    pq "repl.apply_ops_per_quote" "repl_apply_op";
    pq "repl.reads_per_quote" "n_reads";
    d "repl.segments_dropped_frac" "ratio" (Ratio ("segments_dropped", "segments_sent"));
    d "repl.ingest_ns_per_byte" "ns" Probe;
    pq "shard.msgs_per_quote" "shard_msgs";
    pq "shard.bytes_per_quote" "shard_bytes";
    d "shard.reships_per_partial" "ratio" (Ratio ("shard_reships", "shard_partials"));
    d "shard.dqueue_merged_frac" "ratio" (Ratio ("dqueue_merged", "dqueue_offered"));
    d "shard.dqueue_duplicate_frac" "ratio" (Ratio ("dqueue_duplicates", "dqueue_offered"));
    d "shard.dqueue_offer_ns" "ns" Probe;
    d "setup.populate_s" "s" (Step "setup.populate");
    d "setup.install_s" "s" (Step "setup.install");
    d "setup.feed_s" "s" (Step "setup.feed");
    d "setup.replay_s" "s" (Step "setup.replay");
  ]

(* [value def ~quotes ~counts ~probes ~steps]: a missing count is zero
   (the run had no such layer); a missing probe or step is [None]. *)
let value def ~quotes ~counts ~probes ~steps =
  let c k = float_of_int (Option.value (List.assoc_opt k counts) ~default:0) in
  let ratio a b = if b = 0.0 then None else Some (a /. b) in
  match def.source with
  | Per_quote k -> ratio (c k) quotes
  | Count k -> Some (c k)
  | Ratio (a, b) -> ratio (c a) (c b)
  | Probe -> Option.join (List.assoc_opt def.name probes)
  | Step s -> List.assoc_opt s steps
