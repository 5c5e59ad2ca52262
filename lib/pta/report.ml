module Json = Strip_obs.Json
module Histogram = Strip_obs.Histogram
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
        | Metrics.Histo (s, _) -> (sum +. s.Histogram.sum, n + s.n)
        | _ -> not_a "a histogram" name)
      (0.0, 0) (rows reg name)
  in
  if n = 0 then 0.0 else sum /. float_of_int n

(* One unsharded histogram row's distribution; [None] while empty. *)
let summary reg ?labels name =
  match rows reg ?labels name with
  | [ Metrics.Histo (s, _) ] -> if s.n = 0 then None else Some s
  | _ -> not_a "one histogram" name

(* ------------------------------------------------------------------ *)
(* Text templates.  Each value is computed once, as a JSON entry; a text
   line is a template over the entries of the same section.  A
   placeholder is [{path*scale%format?yes|no|null}], all but the path
   optional:
   - [path] names an entry, dotted into a nested object
     ([lock_wait_s.p50]); through a null it reads null;
   - [*scale] multiplies a float (seconds to ms, a fraction to percent);
   - [%format] is a printf format with one conversion ([%d], [%s] and
     [%f] by default);
   - [?yes|no|null] prints [yes] for a true, positive or present value,
     [null] (default [no]) for a null, and [no] otherwise.
   A list prints its elements joined by ", ".  A name that is no entry
   fails the render instead of printing a blank. *)

type text =
  | S of string  (* a template *)
  | If of (Json.t -> bool) * text list * text list
  | Each of string * text list
      (* once per element of the list at a path ([""]: the scope itself);
         an object's members are visited as [{"name", "value"}] pairs *)

let fail fmt = Printf.ksprintf failwith ("Report: " ^^ fmt)

let lookup scope path =
  if path = "" then scope
  else
    List.fold_left
      (fun v key ->
        match v with
        | Json.Null -> Json.Null
        | Json.Obj ms -> (
          match List.assoc_opt key ms with
          | Some v -> v
          | None -> fail "template names %s, which is no entry" path)
        | _ -> fail "template path %s crosses a non-object" path)
      scope
      (String.split_on_char '.' path)

let truthy = function
  | Json.Null | Json.Bool false -> false
  | Json.Int n -> n > 0
  | Json.Float x -> x > 0.0
  | _ -> true

(* Any of the named entries is true, positive or present. *)
let any names scope = List.exists (fun n -> truthy (lookup scope n)) names

let cut c s =
  match String.index_opt s c with
  | None -> (s, None)
  | Some i ->
    (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

let rec show body ~scale ~spec ~alts v =
  let printf ty x =
    let spec = Option.value spec ~default:(string_of_format ty) in
    match Scanf.format_from_string spec ty with
    | f -> Printf.sprintf f x
    | exception Scanf.Scan_failure _ ->
      fail "{%s}: %s is no %s format" body spec (string_of_format ty)
  in
  match (alts, v) with
  | Some alts, _ ->
    printf "%s"
      (match (String.split_on_char '|' alts, v) with
      | [ _; _; null ], Json.Null -> null
      | [ yes; _ ], v | [ yes; _; _ ], v when truthy v -> yes
      | ([ _; no ] | [ _; no; _ ]), _ -> no
      | _ -> fail "{%s}: a choice takes two or three texts" body)
  | None, Json.List vs -> String.concat ", " (List.map (show body ~scale ~spec ~alts) vs)
  | None, Json.Int i -> printf "%d" i
  | None, Json.Float x -> printf "%f" (x *. scale)
  | None, Json.Str s -> printf "%s" s
  | None, v -> fail "{%s} cannot print %s" body (Json.to_string v)

(* Expand [tmpl] against [scope] into [out]; with no [out], only check
   that every placeholder names an entry. *)
let fill out scope tmpl =
  let rec go i =
    match String.index_from_opt tmpl i '{' with
    | None ->
      Option.iter (fun b -> Buffer.add_substring b tmpl i (String.length tmpl - i)) out
    | Some j ->
      let k = String.index_from tmpl j '}' in
      let body = String.sub tmpl (j + 1) (k - j - 1) in
      let rest, alts = cut '?' body in
      let rest, spec = cut '%' rest in
      let path, scale = cut '*' rest in
      let v = lookup scope path in
      Option.iter
        (fun b ->
          Buffer.add_substring b tmpl i (j - i);
          Buffer.add_string b
            (show body ~alts
               ~scale:(Option.fold ~none:1.0 ~some:float_of_string scale)
               ~spec:(Option.map (( ^ ) "%") spec)
               v))
        out;
      go (k + 1)
  in
  go 0

let rec render out scope = function
  | S tmpl -> fill out scope tmpl
  | If (cond, yes, no) ->
    (* The branch not taken is checked too, so a misspelt name fails
       every render, not only the rare run that takes its branch. *)
    let taken, other = if cond scope then (yes, no) else (no, yes) in
    List.iter (render None scope) other;
    List.iter (render out scope) taken
  | Each (path, ts) ->
    let elements =
      match lookup scope path with
      | Json.List vs -> vs
      | Json.Obj ms ->
        List.map (fun (n, v) -> Json.Obj [ ("name", Json.Str n); ("value", v) ]) ms
      | _ -> fail "template iterates %s, which is no list" path
    in
    List.iter (fun v -> List.iter (render out v) ts) elements

(* ------------------------------------------------------------------ *)
(* Sections.  Each section's entries are built once, in JSON order, by
   the builders below; its text lines, in [text], name them. *)

type section =
  | Row | Failures | Servers | Recovery | Replication | Storage | Sharding | Staleness | Slo
  | Trace | Updates

let sections =
  [ Row; Failures; Servers; Recovery; Replication; Storage; Sharding; Staleness; Slo; Trace;
    Updates ]

(* The member a section's entries sit under, absent unless the run armed
   it; [None] for the top level. *)
let member = function
  | Recovery -> Some "recovery"
  | Replication -> Some "replication"
  | Storage -> Some "storage"
  | Sharding -> Some "sharding"
  | Slo -> Some "slo"
  | Trace -> Some "trace"
  | Row | Failures | Servers | Staleness | Updates -> None

let summary_json s = Json.Obj (Histogram.summary_fields s)
let opt_summary = Option.fold ~none:Json.Null ~some:summary_json

(* The top level: the row, failures, servers and lock waits, updates and
   staleness all read these. *)
let head (m : Experiment.metrics) =
  [
    ("label", Json.Str m.label);
    ("delay_s", Json.Float m.delay);
    ("duration_s", Json.Float m.duration_s);
    ("servers", Json.Int m.servers);
    ("makespan_s", Json.Float m.makespan_s);
    ("recompute_throughput_per_s", Json.Float m.recompute_throughput_per_s);
    ( "per_server_utilization",
      Json.List (List.map (fun u -> Json.Float u) m.per_server_utilization) );
    ("n_lock_waits", Json.Int m.n_lock_waits);
    ("n_lock_timeouts", Json.Int m.n_lock_timeouts);
    ("lock_wait_s", opt_summary m.lock_wait_s);
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
    ("verified", Option.fold ~none:Json.Null ~some:(fun b -> Json.Bool b) m.verified);
    ("max_abs_error", Json.Float m.max_abs_error);
    ("n_injected", Json.Int (count m.registry "faults_injected_total"));
    ("n_aborts", Json.Int m.n_aborts);
    ("n_retries", Json.Int m.n_retries);
    ("n_sheds", Json.Int m.n_sheds);
    ("n_dead_letters", Json.Int m.n_dead_letters);
    ("mean_recovery_s", Json.Float (mean m.registry "recovery_latency_s"));
    ( "staleness_s",
      Json.Obj (List.map (fun (t, s) -> (t, summary_json s)) m.staleness) );
  ]

let recovery reg (r : Experiment.recovery_metrics) =
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

let replication reg (r : Experiment.repl_metrics) =
  let replica (pr : Experiment.replica_metrics) =
    let labels = [ ("replica", string_of_int pr.r_id) ] in
    let total name = Json.Int (count reg ~labels ("repl_replica_" ^ name ^ "_total")) in
    Json.Obj
      [
        ("id", Json.Int pr.r_id);
        ("applied_lsn", Json.Int pr.r_applied_lsn);
        ("segments", total "segments");
        ("duplicates", total "duplicates");
        ("reordered", total "reordered");
        ("bootstraps", total "bootstraps");
        ("reads", total "reads");
        ("lag_s", opt_summary (summary reg ~labels "repl_lag_s"));
      ]
  in
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
             (fun (e, id) -> Json.Obj [ ("epoch", Json.Int e); ("primary", Json.Int id) ])
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
      ("replicas", Json.List (List.map replica r.per_replica));
    ]

let storage_json reg (s : Experiment.storage_metrics) =
  let scrub name = Json.Int (count reg ("scrub_" ^ name ^ "_total")) in
  let recovery kind =
    (Stats.recovery_work_name kind, Json.Int (count reg (Strip_db.recovery_work_row kind)))
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

let sharding (m : Experiment.metrics) (s : Experiment.shard_metrics) =
  let shard i (r : Experiment.shard_row) =
    let on ?(labels = []) name =
      Json.Int (count m.registry ~labels:(("shard", string_of_int i) :: labels) name)
    in
    let tasks klass = on ~labels:[ ("class", klass) ] "tasks_total" in
    Json.Obj
      [
        ("id", Json.Int i);
        ("updates", tasks "update");
        ("recomputes", tasks "recompute");
        ("firings", on "rule_firings_total");
        ("partials_out", on "shard_partials_out_total");
        ("offered", Json.Int r.sh_offered);
        ("duplicates", Json.Int r.sh_duplicates);
        ("merged", Json.Int r.sh_merged);
        ("applied", on "dqueue_applied_total");
        ("crashes", on "shard_crashes_total");
        ("final_lsn", on "wal_durable_end_lsn");
      ]
  in
  Json.Obj
    [
      ("n_shards", Json.Int s.n_shards);
      ("msgs_sent", Json.Int s.sh_msgs);
      ("bytes_shipped", Json.Int s.sh_bytes);
      ("partials_shipped", Json.Int s.sh_partials);
      ("acks_sent", Json.Int s.sh_acks);
      ("reships", Json.Int s.sh_reships);
      (* A sharded run's shards are durable: their downtime is the
         recovery downtime. *)
      ( "recovery_s",
        Json.Float (match m.recovery with Some r -> r.total_recovery_s | None -> 0.0) );
      ("cross_checks", Json.Int s.cross_checks);
      ("cross_divergences", Json.Int s.cross_divergences);
      ("shards", Json.List (List.mapi shard s.sh_rows));
    ]

let trace (node, buffered, dropped) =
  Json.Obj
    [ ("node", Json.Str node); ("buffered", Json.Int buffered); ("dropped", Json.Int dropped) ]

(* [ts] only when one of [names] is true, positive or present. *)
let opt names ts = If (any names, ts, [])

let text = function
  | Row ->
    [ S "{label%-36s} {delay_s%6.2f} {utilization*100%7.1f}% {n_recompute%9d} \
         {mean_recompute_us%12.1f} {p50_recompute_us%10.1f} {p99_recompute_us%10.1f} \
         {max_recompute_us%12.0f} {n_merges%8d} {context_switches%8d} \
         {verified%6s?yes|NO|-}\n" ]
  | Failures ->
    (* "(none)" tells a clean run from a missing report. *)
    [ If (any [ "n_injected"; "n_aborts"; "n_retries"; "n_sheds"; "n_dead_letters" ],
          [ S "  failures: {n_injected} injected, {n_aborts} aborts, {n_retries} retries, \
               {n_sheds} sheds, {n_dead_letters} dead";
            opt [ "mean_recovery_s" ] [ S ", mean recovery {mean_recovery_s%.3f}s" ];
            S "\n" ],
          [ S "  failures: (none)\n" ]) ]
  | Servers ->
    let many s = match lookup s "servers" with Json.Int n -> n > 1 | _ -> false in
    [ If ((fun s -> many s || any [ "n_lock_waits"; "n_lock_timeouts" ] s),
          [ S "  servers: {servers}; makespan {makespan_s%.1f}s; recompute throughput \
               {recompute_throughput_per_s%.1f}/s; utilization per server: \
               {per_server_utilization*100%.1f%%}\n";
            If (any [ "lock_wait_s" ],
                [ S "  lock waits: {n_lock_waits} (mean {lock_wait_s.mean*1e3%.2f}ms p50 \
                     {lock_wait_s.p50*1e3%.2f}ms p99 {lock_wait_s.p99*1e3%.2f}ms max \
                     {lock_wait_s.max*1e3%.2f}ms); timeouts: {n_lock_timeouts}\n" ],
                [ S "  lock waits: (none); timeouts: {n_lock_timeouts}\n" ]) ],
          []) ]
  | Recovery ->
    [ S "  durability: {wal_appends} wal appends / {wal_fsyncs} fsyncs ({wal_appended_bytes} \
         bytes, {wal_overhead_s%.3f}s cpu); {n_checkpoints} checkpoints (last \
         {checkpoint_bytes} bytes, {checkpoint_overhead_s%.3f}s cpu)\n";
      opt [ "n_crashes" ]
        [ S "  crashes: {n_crashes}; recovery {total_recovery_s%.3f}s total; restored \
             {restored_rows} rows; redo {redo_commits} commits / {redo_ops} ops; requeued \
             {requeued}\n" ];
      S "  audit: {audit_clean?clean|DIVERGENT}";
      opt [ "repairs"; "audit_divergences" ]
        [ S " ({audit_divergences} divergences, {repairs} repairs)" ];
      S "\n" ]
  | Replication ->
    [ S "  replication: {n_replicas} replicas, policy {read_policy}; {segments_sent} segments \
         shipped ({bytes_shipped} bytes, {segments_dropped} dropped); {n_failovers} \
         failover(s)";
      opt [ "n_partitions" ]
        [ S "; {n_partitions} partition(s) ({partition_drops} sends cut, {fenced_messages} \
             msgs fenced)" ];
      S "; epoch {epoch}; data loss: {promotion_lost_bytes} bytes lost, {fenced_bytes} \
         bytes fenced\n";
      (* Cluster-wide lag, merged across replicas: the percentile row a
         primary-only report would understate. *)
      opt [ "cluster_lag_s" ]
        [ S "  cluster lag: n={cluster_lag_s.count} p50 {cluster_lag_s.p50*1e3%.1f}ms p99 \
             {cluster_lag_s.p99*1e3%.1f}ms max {cluster_lag_s.max*1e3%.1f}ms (all \
             replicas)\n" ];
      Each ("replicas",
            [ S "  replica {id}: applied_lsn {applied_lsn}; {segments} segments ({duplicates} \
                 dup, {reordered} reordered, {bootstraps} reseeds); {reads} reads";
              opt [ "lag_s" ] [ S "; lag p50 {lag_s.p50*1e3%.1f}ms p99 {lag_s.p99*1e3%.1f}ms" ];
              S "\n" ]);
      opt [ "n_reads" ]
        [ S "  reads: {n_reads} total ({reads_primary} primary / {reads_replica} replica), \
             policy {read_policy}; ";
          If (any [ "read_latency_s" ],
              [ S "p50 {read_latency_s.p50*1e3%.2f}ms p99 {read_latency_s.p99*1e3%.2f}ms \
                   max {read_latency_s.max*1e3%.2f}ms;" ],
              [ S "latency n/a;" ]);
          S " throughput {read_throughput_per_s%.1f}/s\n" ] ]
  | Storage ->
    [ S "  scrub: {scrub_passes} pass(es) over {scrub_bytes} WAL + {scrub_slot_bytes} slot \
         bytes; {wal_corruptions} WAL + {cp_corruptions} checkpoint corruption(s); repaired \
         {repaired_replica} from replicas, {repaired_checkpoint} from checkpoints; salvage \
         cpu {salvage_s*1e3%.1f}ms\n" ]
  | Sharding ->
    [ S "  sharding: {n_shards} shards; {partials_shipped} partials shipped ({msgs_sent} \
         msgs, {bytes_shipped} bytes, {acks_sent} acks, {reships} reships); cross-shard \
         audit: {cross_divergences?DIVERGENT|clean} ({cross_checks} composites)";
      opt [ "cross_divergences" ] [ S " ({cross_divergences} divergences)" ];
      S "\n";
      opt [ "recovery_s" ] [ S "  shard downtime: {recovery_s%.3f}s total across restarts\n" ];
      Each ("shards",
            [ S "  shard {id}: {updates} updates, {recomputes} recomputes, {firings} firings; \
                 {partials_out} partials out; queue {offered} offered ({duplicates} dup, \
                 {merged} merged, {applied} applied); {crashes} crash(es); lsn \
                 {final_lsn}\n" ]) ]
  | Staleness ->
    [ Each ("staleness_s",
            [ S "  staleness {name%-16s} n={value.count%-6d} mean={value.mean%.3f}s \
                 p50={value.p50%.3f}s p90={value.p90%.3f}s p99={value.p99%.3f}s \
                 max={value.max%.3f}s\n" ]) ]
  | Slo ->
    [ Each ("",
            [ S "  slo {view%-16s} bound={bound_s%.3f}s {met?met|VIOLATED}: {violations}/\
                 {samples} samples over bound in {windows} window(s) ({violation_s%.3f}s \
                 violating, worst {worst_s%.3f}s)\n" ]) ]
  | Trace ->
    [ Each ("", [ S "  trace {node%-16s} {buffered} span event(s) buffered, {dropped} dropped\n" ]) ]
  | Updates ->
    [ S "updates: {n_updates}; firings: {n_firings}; fanout E[rows/update]: \
         {expected_fanout%.1f}; busy update/recompute: \
         {busy_update_s%.1f}s/{busy_recompute_s%.1f}s\n" ]

let metrics_json (m : Experiment.metrics) =
  let reg = m.registry in
  let listed f = function [] -> None | xs -> Some (Json.List (List.map f xs)) in
  let blocks =
    [
      (Recovery, Option.map (recovery reg) m.recovery);
      (Replication, Option.map (replication reg) m.repl);
      (Storage, Option.map (storage_json reg) m.storage);
      (Sharding, Option.map (sharding m) m.shard);
      (Slo, listed Strip_obs.Slo.report_json m.slo);
      (Trace, listed trace m.trace_spans);
    ]
  in
  Json.Obj
    (head m
    @ List.filter_map
        (fun (s, v) -> Option.map (fun v -> (Option.get (member s), v)) v)
        blocks)

let print sections report =
  let b = Buffer.create 1024 in
  List.iter
    (fun s ->
      let scope =
        match member s with None -> Some report | Some k -> Json.member k report
      in
      Option.iter (fun scope -> List.iter (render (Some b) scope) (text s)) scope)
    sections;
  print_string (Buffer.contents b);
  flush stdout

let print_metrics_json ms =
  print_string
    (Json.to_string (Json.Obj [ ("experiments", Json.List (List.map metrics_json ms)) ]));
  print_newline ();
  flush stdout

(* ------------------------------------------------------------------ *)
(* Figures. *)

let print_metrics_header () =
  Printf.printf "%-36s %6s %8s %9s %12s %10s %10s %12s %8s %8s %6s\n%!"
    "configuration" "delay" "cpu%" "N_r" "mean_rc_us" "p50_rc_us" "p99_rc_us"
    "max_rc_us" "merges" "ctxsw" "ok"

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
