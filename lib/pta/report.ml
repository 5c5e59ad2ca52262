module Json = Strip_obs.Json
module Metrics = Strip_obs.Metrics
module Stats = Strip_sim.Stats
module Strip_db = Strip_core.Strip_db

(* Every count the report prints that no other reader needs is read from
   the run's metrics-registry snapshot.  A row matches [name] when its
   labels, a [shard] label aside, are [labels]: a sharded run has one row
   per shard primary, and [count] sums them.  A missing row is a probe
   that was renamed or never registered, which fails loudly rather than
   printing a zero. *)
let rows reg ?(labels = []) name =
  let ds = Metrics.find_all reg ~labels ~across:"shard" name in
  if ds = [] then
    failwith
      (Printf.sprintf "Report: registry row %s{%s} missing" name
         (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)));
  ds

let not_a kind name = failwith ("Report: registry row " ^ name ^ " is not " ^ kind)

let count reg ?labels name =
  List.fold_left
    (fun t -> function Metrics.Int i -> t + i | _ -> not_a "a counter" name)
    0 (rows reg ?labels name)

(* A histogram's mean over every shard's samples. *)
let mean reg name =
  let sum, n =
    List.fold_left
      (fun (sum, n) -> function
        | Metrics.Histo (s, _) -> (sum +. s.Strip_obs.Histogram.sum, n + s.n)
        | _ -> not_a "a histogram" name)
      (0.0, 0) (rows reg name)
  in
  if n = 0 then 0.0 else sum /. float_of_int n

(* One unsharded histogram row's distribution; [None] while empty. *)
let summary reg ?labels name =
  match rows reg ?labels name with
  | [ Metrics.Histo (s, _) ] -> if s.n = 0 then None else Some s
  | _ -> not_a "one histogram" name

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
  let n_injected = count m.registry "faults_injected_total" in
  let mean_recovery_s = mean m.registry "recovery_latency_s" in
  if n_injected + m.n_aborts + m.n_retries + m.n_sheds + m.n_dead_letters > 0
  then
    Printf.printf
      "  failures: %d injected, %d aborts, %d retries, %d sheds, %d dead%s\n%!"
      n_injected m.n_aborts m.n_retries m.n_sheds m.n_dead_letters
      (if mean_recovery_s > 0.0 then
         Printf.sprintf ", mean recovery %.3fs" mean_recovery_s
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
    let reg = m.registry in
    Printf.printf
      "  durability: %d wal appends / %d fsyncs (%d bytes, %.3fs cpu); %d \
       checkpoints (last %d bytes, %.3fs cpu)\n%!"
      (count reg "wal_appends_total")
      (count reg "wal_fsyncs_total")
      r.wal_appended_bytes r.wal_overhead_s r.n_checkpoints
      (count reg "checkpoint_bytes")
      r.checkpoint_overhead_s;
    if r.n_crashes > 0 then
      Printf.printf
        "  crashes: %d; recovery %.3fs total; restored %d rows; redo %d \
         commits / %d ops; requeued %d\n%!"
        r.n_crashes r.total_recovery_s r.restored_rows r.redo_commits
        r.redo_ops r.requeued;
    let repairs = count reg (Strip_db.recovery_work_row Stats.Repairs) in
    Printf.printf "  audit: %s%s\n%!"
      (if r.audit_clean then "clean" else "DIVERGENT")
      (if repairs > 0 || r.audit_divergences > 0 then
         Printf.sprintf " (%d divergences, %d repairs)" r.audit_divergences
           repairs
       else "")

let print_repl (m : Experiment.metrics) =
  match m.repl with
  | None -> ()
  | Some (r : Experiment.repl_metrics) ->
    let reg = m.registry in
    Printf.printf
      "  replication: %d replicas, policy %s; %d segments shipped (%d \
       bytes, %d dropped); %d failover(s)%s; epoch %d; data loss: %d \
       bytes lost, %d bytes fenced\n%!"
      (count reg "repl_replicas")
      r.read_policy r.segments_sent r.bytes_shipped r.segments_dropped
      r.n_failovers
      (if r.n_partitions > 0 then
         Printf.sprintf "; %d partition(s) (%d sends cut, %d msgs fenced)"
           r.n_partitions
           (count reg "repl_partition_drops_total")
           (count reg "repl_fenced_messages_total")
       else "")
      r.epoch r.promotion_lost_bytes r.fenced_bytes;
    (* Cluster-wide lag, merged across replicas — the percentile row a
       primary-only report would understate. *)
    (match summary reg "repl_cluster_lag_s" with
    | None -> ()
    | Some (s : Strip_obs.Histogram.summary) ->
      Printf.printf
        "  cluster lag: n=%d p50 %.1fms p99 %.1fms max %.1fms (all replicas)\n%!"
        s.n (1e3 *. s.p50) (1e3 *. s.p99) (1e3 *. s.max));
    List.iter
      (fun (pr : Experiment.replica_metrics) ->
        let labels = [ ("replica", string_of_int pr.r_id) ] in
        let replica name = count reg ~labels ("repl_replica_" ^ name ^ "_total") in
        Printf.printf
          "  replica %d: applied_lsn %d; %d segments (%d dup, %d reordered, \
           %d reseeds); %d reads%s\n%!"
          pr.r_id pr.r_applied_lsn (replica "segments") (replica "duplicates")
          (replica "reordered") (replica "bootstraps") (replica "reads")
          (match summary reg ~labels "repl_lag_s" with
          | None -> ""
          | Some s ->
            Printf.sprintf "; lag p50 %.1fms p99 %.1fms" (1e3 *. s.p50)
              (1e3 *. s.p99)))
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

let print_storage reg (s : Experiment.storage_metrics) =
  let scrub name = count reg ("scrub_" ^ name ^ "_total") in
  Printf.printf
    "  scrub: %d pass(es) over %d WAL + %d slot bytes; %d WAL + %d \
     checkpoint corruption(s); repaired %d from replicas, %d from \
     checkpoints; salvage cpu %.1fms\n"
    (scrub "passes") s.scrub_bytes (scrub "slot_bytes")
    (scrub "wal_corruptions") (scrub "cp_corruptions") s.repaired_replica
    s.repaired_checkpoint (1e3 *. s.salvage_s)

(* A sharded run's shards are durable: their downtime is the recovery
   downtime. *)
let downtime (m : Experiment.metrics) =
  match m.recovery with Some r -> r.total_recovery_s | None -> 0.0

(* Shard [i]'s counts, in report order. *)
let shard_counts reg i (r : Experiment.shard_row) =
  let on ?(labels = []) name =
    count reg ~labels:(("shard", string_of_int i) :: labels) name
  in
  let tasks klass = on ~labels:[ ("class", klass) ] "tasks_total" in
  [
    ("updates", tasks "update");
    ("recomputes", tasks "recompute");
    ("firings", on "rule_firings_total");
    ("partials_out", on "shard_partials_out_total");
    ("offered", r.sh_offered);
    ("duplicates", r.sh_duplicates);
    ("merged", r.sh_merged);
    ("applied", on "dqueue_applied_total");
    ("crashes", on "shard_crashes_total");
    ("final_lsn", on "wal_durable_end_lsn");
  ]

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
    let down_s = downtime m in
    if down_s > 0.0 then
      Printf.printf "  shard downtime: %.3fs total across restarts\n%!" down_s;
    List.iteri
      (fun i r ->
        let n k = List.assoc k (shard_counts m.registry i r) in
        Printf.printf
          "  shard %d: %d updates, %d recomputes, %d firings; %d partials \
           out; queue %d offered (%d dup, %d merged, %d applied); %d \
           crash(es); lsn %d\n%!"
          i (n "updates") (n "recomputes") (n "firings") (n "partials_out")
          (n "offered") (n "duplicates") (n "merged") (n "applied")
          (n "crashes") (n "final_lsn"))
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

let recovery_json reg (r : Experiment.recovery_metrics) =
  Json.Obj
    [
      ("n_crashes", Json.Int r.n_crashes);
      ("n_checkpoints", Json.Int r.n_checkpoints);
      ("checkpoint_bytes", Json.Int (count reg "checkpoint_bytes"));
      ("wal_appends", Json.Int (count reg "wal_appends_total"));
      ("wal_fsyncs", Json.Int (count reg "wal_fsyncs_total"));
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
      ("repairs", Json.Int (count reg (Strip_db.recovery_work_row Stats.Repairs)));
    ]

let opt_summary = function None -> Json.Null | Some s -> summary_to_json s

let repl_json reg (r : Experiment.repl_metrics) =
  Json.Obj
    [
      ("n_replicas", Json.Int (count reg "repl_replicas"));
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
      ("partition_drops", Json.Int (count reg "repl_partition_drops_total"));
      ("fenced_messages", Json.Int (count reg "repl_fenced_messages_total"));
      ("segments_sent", Json.Int r.segments_sent);
      ("segments_dropped", Json.Int r.segments_dropped);
      ("bytes_shipped", Json.Int r.bytes_shipped);
      ("cluster_lag_s", opt_summary (summary reg "repl_cluster_lag_s"));
      ( "replicas",
        Json.List
          (List.map
             (fun (pr : Experiment.replica_metrics) ->
               let labels = [ ("replica", string_of_int pr.r_id) ] in
               let replica name =
                 Json.Int (count reg ~labels ("repl_replica_" ^ name ^ "_total"))
               in
               Json.Obj
                 [
                   ("id", Json.Int pr.r_id);
                   ("applied_lsn", Json.Int pr.r_applied_lsn);
                   ("segments", replica "segments");
                   ("duplicates", replica "duplicates");
                   ("reordered", replica "reordered");
                   ("bootstraps", replica "bootstraps");
                   ("reads", replica "reads");
                   ("lag_s", opt_summary (summary reg ~labels "repl_lag_s"));
                 ])
             r.per_replica) );
    ]

let storage_json reg (s : Experiment.storage_metrics) =
  let scrub name = Json.Int (count reg ("scrub_" ^ name ^ "_total")) in
  let recovery kind =
    ( Stats.recovery_work_name kind,
      Json.Int (count reg (Strip_db.recovery_work_row kind)) )
  in
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
      ("scrub_passes", scrub "passes");
      ("scrub_bytes", Json.Int s.scrub_bytes);
      ("scrub_slot_bytes", scrub "slot_bytes");
      ("wal_corruptions", scrub "wal_corruptions");
      ("cp_corruptions", scrub "cp_corruptions");
      ("repaired_replica", Json.Int s.repaired_replica);
      ("repaired_checkpoint", Json.Int s.repaired_checkpoint);
      ("scrub_salvaged_bytes", Json.Int s.scrub_salvaged_bytes);
      ("scrub_expunged_bytes", Json.Int s.scrub_expunged_bytes);
      recovery Stats.Cp_fallbacks;
      recovery Stats.Salvaged_ranges;
      recovery Stats.Salvaged_bytes;
      recovery Stats.Quarantined_bytes;
      recovery Stats.Orphan_merges;
      ("disk_fulls", Json.Int s.disk_fulls);
      ("lied_bytes", Json.Int s.lied_bytes);
      ("ship_verify_skips", Json.Int s.ship_verify_skips);
      ("salvage_s", Json.Float s.salvage_s);
      ("final_clean", Json.Bool s.final_clean);
    ]

let shard_json (m : Experiment.metrics) (s : Experiment.shard_metrics) =
  Json.Obj
    [
      ("n_shards", Json.Int s.n_shards);
      ("msgs_sent", Json.Int s.sh_msgs);
      ("bytes_shipped", Json.Int s.sh_bytes);
      ("partials_shipped", Json.Int s.sh_partials);
      ("acks_sent", Json.Int s.sh_acks);
      ("reships", Json.Int s.sh_reships);
      ("recovery_s", Json.Float (downtime m));
      ("cross_checks", Json.Int s.cross_checks);
      ("cross_divergences", Json.Int s.cross_divergences);
      ( "shards",
        Json.List
          (List.mapi
             (fun i r ->
               Json.Obj
                 (("id", Json.Int i)
                 :: List.map
                      (fun (k, n) -> (k, Json.Int n))
                      (shard_counts m.registry i r)))
             s.sh_rows) );
    ]

let metrics_json (m : Experiment.metrics) =
  (* The "recovery" member appears only for durable runs, and the
     "replication" member only for replicated runs, so crash-free /
     replica-free reports stay byte-identical to earlier versions. *)
  let recovery_field =
    match m.recovery with
    | None -> []
    | Some r -> [ ("recovery", recovery_json m.registry r) ]
  in
  let repl_field =
    match m.repl with
    | None -> []
    | Some r -> [ ("replication", repl_json m.registry r) ]
  in
  (* "storage" appears only for storage-fault runs, keeping every other
     report byte-identical. *)
  let storage_field =
    match m.storage with
    | None -> []
    | Some s -> [ ("storage", storage_json m.registry s) ]
  in
  (* "sharding" appears only for sharded runs, keeping single-primary
     reports byte-identical. *)
  let shard_field =
    match m.shard with
    | None -> []
    | Some s -> [ ("sharding", shard_json m s) ]
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
      ("n_injected", Json.Int (count m.registry "faults_injected_total"));
      ("n_aborts", Json.Int m.n_aborts);
      ("n_retries", Json.Int m.n_retries);
      ("n_sheds", Json.Int m.n_sheds);
      ("n_dead_letters", Json.Int m.n_dead_letters);
      ("mean_recovery_s", Json.Float (mean m.registry "recovery_latency_s"));
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
