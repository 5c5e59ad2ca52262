module Json = Strip_obs.Json

let print_metrics_header () =
  Printf.printf "%-36s %6s %8s %9s %12s %10s %10s %12s %8s %8s %6s\n%!"
    "configuration" "delay" "cpu%" "N_r" "mean_rc_us" "p50_rc_us" "p99_rc_us"
    "max_rc_us" "merges" "ctxsw" "ok"

let print_metrics (m : Experiment.metrics) =
  Printf.printf
    "%-36s %6.2f %7.1f%% %9d %12.1f %10.1f %10.1f %12.0f %8d %8d %6s\n%!"
    m.label m.delay
    (100.0 *. m.utilization)
    m.n_recompute m.mean_recompute_us m.p50_recompute_us m.p99_recompute_us
    m.max_recompute_us m.n_merges m.context_switches
    (match m.verified with
    | Some true -> "yes"
    | Some false -> "NO"
    | None -> "-")

let print_failures (m : Experiment.metrics) =
  if m.n_injected + m.n_aborts + m.n_retries + m.n_sheds + m.n_dead_letters > 0
  then
    Printf.printf
      "  failures: %d injected, %d aborts, %d retries, %d sheds, %d dead%s\n%!"
      m.n_injected m.n_aborts m.n_retries m.n_sheds m.n_dead_letters
      (if m.mean_recovery_s > 0.0 then
         Printf.sprintf ", mean recovery %.3fs" m.mean_recovery_s
       else "")
  else Printf.printf "  failures: (none)\n%!"

let print_servers (m : Experiment.metrics) =
  if m.servers > 1 || m.n_lock_waits + m.n_lock_timeouts > 0 then begin
    Printf.printf
      "  servers: %d; makespan %.1fs; recompute throughput %.1f/s; \
       utilization per server: %s\n%!"
      m.servers m.makespan_s m.recompute_throughput_per_s
      (String.concat ", "
         (List.map (fun u -> Printf.sprintf "%.1f%%" (100.0 *. u))
            m.per_server_utilization));
    match m.lock_wait_s with
    | None ->
      Printf.printf "  lock waits: (none); timeouts: %d\n%!" m.n_lock_timeouts
    | Some (s : Strip_obs.Histogram.summary) ->
      Printf.printf
        "  lock waits: %d (mean %.2fms p50 %.2fms p99 %.2fms max %.2fms); \
         timeouts: %d\n%!"
        m.n_lock_waits (1e3 *. s.mean) (1e3 *. s.p50) (1e3 *. s.p99)
        (1e3 *. s.max) m.n_lock_timeouts
  end

let print_recovery (m : Experiment.metrics) =
  match m.recovery with
  | None -> ()
  | Some (r : Experiment.recovery_metrics) ->
    Printf.printf
      "  durability: %d wal appends / %d fsyncs (%d bytes, %.3fs cpu); %d \
       checkpoints (last %d bytes, %.3fs cpu)\n%!"
      r.wal_appends r.wal_fsyncs r.wal_appended_bytes r.wal_overhead_s
      r.n_checkpoints r.checkpoint_bytes r.checkpoint_overhead_s;
    if r.n_crashes > 0 then
      Printf.printf
        "  crashes: %d; recovery %.3fs total; restored %d rows; redo %d \
         commits / %d ops; requeued %d\n%!"
        r.n_crashes r.total_recovery_s r.restored_rows r.redo_commits
        r.redo_ops r.requeued;
    Printf.printf "  audit: %s%s\n%!"
      (if r.audit_clean then "clean" else "DIVERGENT")
      (if r.repairs > 0 || r.audit_divergences > 0 then
         Printf.sprintf " (%d divergences, %d repairs)" r.audit_divergences
           r.repairs
       else "")

let print_repl (m : Experiment.metrics) =
  match m.repl with
  | None -> ()
  | Some (r : Experiment.repl_metrics) ->
    Printf.printf
      "  replication: %d replicas, policy %s; %d segments shipped (%d \
       bytes, %d dropped); %d failover(s)%s; epoch %d; data loss: %d \
       bytes lost, %d bytes fenced\n%!"
      r.n_replicas r.read_policy r.segments_sent r.bytes_shipped
      r.segments_dropped r.n_failovers
      (if r.n_partitions > 0 then
         Printf.sprintf "; %d partition(s) (%d sends cut, %d msgs fenced)"
           r.n_partitions r.partition_drops r.fenced_messages
       else "")
      r.epoch r.promotion_lost_bytes r.fenced_bytes;
    (* Cluster-wide lag, merged across replicas — the percentile row a
       primary-only report would understate. *)
    (match r.cluster_lag with
    | None -> ()
    | Some (s : Strip_obs.Histogram.summary) ->
      Printf.printf
        "  cluster lag: n=%d p50 %.1fms p99 %.1fms max %.1fms (all replicas)\n%!"
        s.n (1e3 *. s.p50) (1e3 *. s.p99) (1e3 *. s.max));
    List.iter
      (fun (pr : Experiment.replica_metrics) ->
        match pr.r_lag with
        | None ->
          Printf.printf
            "  replica %d: applied_lsn %d; %d segments (%d dup, %d \
             reordered, %d reseeds); %d reads\n%!"
            pr.r_id pr.r_applied_lsn pr.r_segments pr.r_duplicates
            pr.r_reordered pr.r_bootstraps pr.r_reads
        | Some (s : Strip_obs.Histogram.summary) ->
          Printf.printf
            "  replica %d: applied_lsn %d; %d segments (%d dup, %d \
             reordered, %d reseeds); %d reads; lag p50 %.1fms p99 %.1fms\n%!"
            pr.r_id pr.r_applied_lsn pr.r_segments pr.r_duplicates
            pr.r_reordered pr.r_bootstraps pr.r_reads (1e3 *. s.p50)
            (1e3 *. s.p99))
      r.per_replica;
    if r.n_reads > 0 then
      Printf.printf
        "  reads: %d total (%d primary / %d replica), policy %s; %s \
         throughput %.1f/s\n%!"
        r.n_reads r.reads_primary r.reads_replica r.read_policy
        (match r.read_latency with
        | None -> "latency n/a;"
        | Some s ->
          Printf.sprintf "p50 %.2fms p99 %.2fms max %.2fms;" (1e3 *. s.p50)
            (1e3 *. s.p99) (1e3 *. s.max))
        r.read_throughput_per_s

let print_storage (s : Experiment.storage_metrics) =
  Printf.printf
    "  scrub: %d pass(es) over %d WAL + %d slot bytes; %d WAL + %d \
     checkpoint corruption(s); repaired %d from replicas, %d from \
     checkpoints; salvage cpu %.1fms\n"
    s.scrub_passes s.scrub_bytes s.scrub_slot_bytes s.wal_corruptions
    s.cp_corruptions s.repaired_replica s.repaired_checkpoint
    (1e3 *. s.salvage_s)

let print_shard (m : Experiment.metrics) =
  match m.shard with
  | None -> ()
  | Some (s : Experiment.shard_metrics) ->
    Printf.printf
      "  sharding: %d shards; %d partials shipped (%d msgs, %d bytes, %d \
       acks, %d reships); cross-shard audit: %s (%d composites)%s\n%!"
      s.n_shards s.sh_partials s.sh_msgs s.sh_bytes s.sh_acks s.sh_reships
      (if s.cross_divergences = 0 then "clean" else "DIVERGENT")
      s.cross_checks
      (if s.cross_divergences > 0 then
         Printf.sprintf " (%d divergences)" s.cross_divergences
       else "");
    if s.sh_recovery_s > 0.0 then
      Printf.printf "  shard downtime: %.3fs total across restarts\n%!"
        s.sh_recovery_s;
    List.iter
      (fun (r : Experiment.shard_row) ->
        Printf.printf
          "  shard %d: %d updates, %d recomputes, %d firings; %d partials \
           out; queue %d offered (%d dup, %d merged, %d applied); %d \
           crash(es); lsn %d\n%!"
          r.sh_id r.sh_updates r.sh_recomputes r.sh_firings r.sh_partials_out
          r.sh_offered r.sh_duplicates r.sh_merged r.sh_applied r.sh_crashes
          r.sh_final_lsn)
      s.sh_rows

let print_slo (m : Experiment.metrics) =
  List.iter
    (fun (r : Strip_obs.Slo.view_report) ->
      Printf.printf
        "  slo %-16s bound=%.3fs %s: %d/%d samples over bound in %d \
         window(s) (%.3fs violating, worst %.3fs)\n%!"
        r.r_view r.r_bound_s
        (if r.r_met then "met" else "VIOLATED")
        r.r_violations r.r_samples r.r_windows r.r_violation_s r.r_worst_s)
    m.slo

let print_trace (m : Experiment.metrics) =
  List.iter
    (fun (node, buffered, dropped) ->
      Printf.printf "  trace %-16s %d span event(s) buffered, %d dropped\n%!"
        node buffered dropped)
    m.trace_spans

let print_staleness (m : Experiment.metrics) =
  List.iter
    (fun (table, (s : Strip_obs.Histogram.summary)) ->
      Printf.printf
        "  staleness %-16s n=%-6d mean=%.3fs p50=%.3fs p90=%.3fs p99=%.3fs max=%.3fs\n%!"
        table s.n s.mean s.p50 s.p90 s.p99 s.max)
    m.staleness

let summary_to_json (s : Strip_obs.Histogram.summary) =
  Json.Obj
    [
      ("count", Json.Int s.n);
      ("sum", Json.Float s.sum);
      ("mean", Json.Float s.mean);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
      ("p50", Json.Float s.p50);
      ("p90", Json.Float s.p90);
      ("p99", Json.Float s.p99);
    ]

let recovery_json (r : Experiment.recovery_metrics) =
  Json.Obj
    [
      ("n_crashes", Json.Int r.n_crashes);
      ("n_checkpoints", Json.Int r.n_checkpoints);
      ("checkpoint_bytes", Json.Int r.checkpoint_bytes);
      ("wal_appends", Json.Int r.wal_appends);
      ("wal_fsyncs", Json.Int r.wal_fsyncs);
      ("wal_appended_bytes", Json.Int r.wal_appended_bytes);
      ("wal_overhead_s", Json.Float r.wal_overhead_s);
      ("checkpoint_overhead_s", Json.Float r.checkpoint_overhead_s);
      ("redo_commits", Json.Int r.redo_commits);
      ("redo_ops", Json.Int r.redo_ops);
      ("requeued", Json.Int r.requeued);
      ("restored_rows", Json.Int r.restored_rows);
      ("total_recovery_s", Json.Float r.total_recovery_s);
      ("audit_clean", Json.Bool r.audit_clean);
      ("audit_divergences", Json.Int r.audit_divergences);
      ("repairs", Json.Int r.repairs);
    ]

let repl_json (r : Experiment.repl_metrics) =
  let opt_summary = function
    | None -> Json.Null
    | Some s -> summary_to_json s
  in
  Json.Obj
    [
      ("n_replicas", Json.Int r.n_replicas);
      ("read_policy", Json.Str r.read_policy);
      ("read_rate", Json.Float r.read_rate);
      ("n_reads", Json.Int r.n_reads);
      ("reads_primary", Json.Int r.reads_primary);
      ("reads_replica", Json.Int r.reads_replica);
      ("read_latency_s", opt_summary r.read_latency);
      ("read_throughput_per_s", Json.Float r.read_throughput_per_s);
      ("n_failovers", Json.Int r.n_failovers);
      ("promotion_lost_bytes", Json.Int r.promotion_lost_bytes);
      ("epoch", Json.Int r.epoch);
      ( "epochs",
        Json.List
          (List.map
             (fun (e, id) ->
               Json.Obj [ ("epoch", Json.Int e); ("primary", Json.Int id) ])
             r.epochs) );
      ( "promotions",
        Json.List
          (List.map
             (fun (e, id, lsn) ->
               Json.Obj
                 [
                   ("epoch", Json.Int e);
                   ("promoted", Json.Int id);
                   ("promoted_lsn", Json.Int lsn);
                 ])
             r.promotions) );
      ("final_lsn", Json.Int r.final_lsn);
      ("fenced_bytes", Json.Int r.fenced_bytes);
      ("n_partitions", Json.Int r.n_partitions);
      ("partition_drops", Json.Int r.partition_drops);
      ("fenced_messages", Json.Int r.fenced_messages);
      ("segments_sent", Json.Int r.segments_sent);
      ("segments_dropped", Json.Int r.segments_dropped);
      ("bytes_shipped", Json.Int r.bytes_shipped);
      ("cluster_lag_s", opt_summary r.cluster_lag);
      ( "replicas",
        Json.List
          (List.map
             (fun (pr : Experiment.replica_metrics) ->
               Json.Obj
                 [
                   ("id", Json.Int pr.r_id);
                   ("applied_lsn", Json.Int pr.r_applied_lsn);
                   ("segments", Json.Int pr.r_segments);
                   ("duplicates", Json.Int pr.r_duplicates);
                   ("reordered", Json.Int pr.r_reordered);
                   ("bootstraps", Json.Int pr.r_bootstraps);
                   ("reads", Json.Int pr.r_reads);
                   ("lag_s", opt_summary pr.r_lag);
                 ])
             r.per_replica) );
    ]

let storage_json (s : Experiment.storage_metrics) =
  Json.Obj
    [
      ("injected_bitrot_wal", Json.Int s.injected_bitrot_wal);
      ("injected_bitrot_cp", Json.Int s.injected_bitrot_cp);
      ("injected_fsync_lie", Json.Int s.injected_fsync_lie);
      ("faults_detected", Json.Int s.faults_detected);
      ("faults_repaired", Json.Int s.faults_repaired);
      ("faults_quarantined", Json.Int s.faults_quarantined);
      ("faults_expunged", Json.Int s.faults_expunged);
      ("faults_outstanding", Json.Int s.faults_outstanding);
      ("faults_late", Json.Int s.faults_late);
      ("scrub_passes", Json.Int s.scrub_passes);
      ("scrub_bytes", Json.Int s.scrub_bytes);
      ("scrub_slot_bytes", Json.Int s.scrub_slot_bytes);
      ("wal_corruptions", Json.Int s.wal_corruptions);
      ("cp_corruptions", Json.Int s.cp_corruptions);
      ("repaired_replica", Json.Int s.repaired_replica);
      ("repaired_checkpoint", Json.Int s.repaired_checkpoint);
      ("scrub_salvaged_bytes", Json.Int s.scrub_salvaged_bytes);
      ("scrub_expunged_bytes", Json.Int s.scrub_expunged_bytes);
      ("cp_fallbacks", Json.Int s.cp_fallbacks);
      ("salvaged_ranges", Json.Int s.salvaged_ranges);
      ("salvaged_bytes", Json.Int s.salvaged_bytes);
      ("quarantined_bytes", Json.Int s.quarantined_bytes);
      ("orphan_merges", Json.Int s.orphan_merges);
      ("disk_fulls", Json.Int s.disk_fulls);
      ("lied_bytes", Json.Int s.lied_bytes);
      ("ship_verify_skips", Json.Int s.ship_verify_skips);
      ("salvage_s", Json.Float s.salvage_s);
      ("final_clean", Json.Bool s.final_clean);
    ]

let shard_json (s : Experiment.shard_metrics) =
  Json.Obj
    [
      ("n_shards", Json.Int s.n_shards);
      ("msgs_sent", Json.Int s.sh_msgs);
      ("bytes_shipped", Json.Int s.sh_bytes);
      ("partials_shipped", Json.Int s.sh_partials);
      ("acks_sent", Json.Int s.sh_acks);
      ("reships", Json.Int s.sh_reships);
      ("recovery_s", Json.Float s.sh_recovery_s);
      ("cross_checks", Json.Int s.cross_checks);
      ("cross_divergences", Json.Int s.cross_divergences);
      ( "shards",
        Json.List
          (List.map
             (fun (r : Experiment.shard_row) ->
               Json.Obj
                 [
                   ("id", Json.Int r.sh_id);
                   ("updates", Json.Int r.sh_updates);
                   ("recomputes", Json.Int r.sh_recomputes);
                   ("firings", Json.Int r.sh_firings);
                   ("partials_out", Json.Int r.sh_partials_out);
                   ("offered", Json.Int r.sh_offered);
                   ("duplicates", Json.Int r.sh_duplicates);
                   ("merged", Json.Int r.sh_merged);
                   ("applied", Json.Int r.sh_applied);
                   ("crashes", Json.Int r.sh_crashes);
                   ("final_lsn", Json.Int r.sh_final_lsn);
                 ])
             s.sh_rows) );
    ]

let metrics_json (m : Experiment.metrics) =
  (* The "recovery" member appears only for durable runs, and the
     "replication" member only for replicated runs, so crash-free /
     replica-free reports stay byte-identical to earlier versions. *)
  let recovery_field =
    match m.recovery with
    | None -> []
    | Some r -> [ ("recovery", recovery_json r) ]
  in
  let repl_field =
    match m.repl with
    | None -> []
    | Some r -> [ ("replication", repl_json r) ]
  in
  (* "storage" appears only for storage-fault runs, keeping every other
     report byte-identical. *)
  let storage_field =
    match m.storage with
    | None -> []
    | Some s -> [ ("storage", storage_json s) ]
  in
  (* "sharding" appears only for sharded runs, keeping single-primary
     reports byte-identical. *)
  let shard_field =
    match m.shard with
    | None -> []
    | Some s -> [ ("sharding", shard_json s) ]
  in
  (* Likewise "slo" and "trace" appear only when those opt-in surfaces
     were armed. *)
  let slo_field =
    match m.slo with
    | [] -> []
    | rs -> [ ("slo", Json.List (List.map Strip_obs.Slo.report_json rs)) ]
  in
  let trace_field =
    match m.trace_spans with
    | [] -> []
    | spans ->
      [
        ( "trace",
          Json.List
            (List.map
               (fun (node, buffered, dropped) ->
                 Json.Obj
                   [
                     ("node", Json.Str node);
                     ("buffered", Json.Int buffered);
                     ("dropped", Json.Int dropped);
                   ])
               spans) );
      ]
  in
  Json.Obj
    ([
      ("label", Json.Str m.label);
      ("delay_s", Json.Float m.delay);
      ("duration_s", Json.Float m.duration_s);
      ("servers", Json.Int m.servers);
      ("makespan_s", Json.Float m.makespan_s);
      ("recompute_throughput_per_s", Json.Float m.recompute_throughput_per_s);
      ( "per_server_utilization",
        Json.List (List.map (fun u -> Json.Float u) m.per_server_utilization)
      );
      ("n_lock_waits", Json.Int m.n_lock_waits);
      ("n_lock_timeouts", Json.Int m.n_lock_timeouts);
      ( "lock_wait_s",
        match m.lock_wait_s with
        | None -> Json.Null
        | Some s -> summary_to_json s );
      ("utilization", Json.Float m.utilization);
      ("n_updates", Json.Int m.n_updates);
      ("n_recompute", Json.Int m.n_recompute);
      ("mean_recompute_us", Json.Float m.mean_recompute_us);
      ("p50_recompute_us", Json.Float m.p50_recompute_us);
      ("p90_recompute_us", Json.Float m.p90_recompute_us);
      ("p99_recompute_us", Json.Float m.p99_recompute_us);
      ("max_recompute_us", Json.Float m.max_recompute_us);
      ("busy_update_s", Json.Float m.busy_update_s);
      ("busy_recompute_s", Json.Float m.busy_recompute_s);
      ("n_firings", Json.Int m.n_firings);
      ("n_merges", Json.Int m.n_merges);
      ("context_switches", Json.Int m.context_switches);
      ("expected_fanout", Json.Float m.expected_fanout);
      ( "verified",
        match m.verified with None -> Json.Null | Some b -> Json.Bool b );
      ("max_abs_error", Json.Float m.max_abs_error);
      ("n_injected", Json.Int m.n_injected);
      ("n_aborts", Json.Int m.n_aborts);
      ("n_retries", Json.Int m.n_retries);
      ("n_sheds", Json.Int m.n_sheds);
      ("n_dead_letters", Json.Int m.n_dead_letters);
      ("mean_recovery_s", Json.Float m.mean_recovery_s);
      ( "staleness_s",
        Json.Obj (List.map (fun (t, s) -> (t, summary_to_json s)) m.staleness)
      );
     ]
    @ recovery_field @ repl_field @ storage_field @ shard_field @ slo_field
    @ trace_field)

let print_metrics_json ms =
  print_string
    (Json.to_string (Json.Obj [ ("experiments", Json.List (List.map metrics_json ms)) ]));
  print_newline ();
  flush stdout

let fmt_pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

let fmt_count v =
  if v >= 1_000_000.0 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 10_000.0 then Printf.sprintf "%.0fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let fmt_us v =
  if v >= 1e6 then Printf.sprintf "%.2fs" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fms" (v /. 1e3)
  else Printf.sprintf "%.0fus" v

let print_series ~title ~ylabel ~delays ~series ~value_fmt =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-');
  Printf.printf "%-26s" (ylabel ^ " \\ delay");
  List.iter (fun d -> Printf.printf "%10s" (Printf.sprintf "%.1fs" d)) delays;
  print_newline ();
  List.iter
    (fun (name, points) ->
      Printf.printf "%-26s" name;
      List.iter
        (fun d ->
          let v =
            match points with
            | [ (_, only) ] -> Some only  (* horizontal baseline *)
            | points -> List.assoc_opt d points
          in
          match v with
          | Some v -> Printf.printf "%10s" (value_fmt v)
          | None -> Printf.printf "%10s" "-")
        delays;
      print_newline ())
    series;
  flush stdout
