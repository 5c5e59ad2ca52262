open Strip_relational
open Strip_core
open Strip_market
module Partitioner = Strip_shard.Partitioner
module Coordinator = Strip_shard.Coordinator

type rule_choice =
  | Comp_view of Comp_rules.variant
  | Option_view of Option_rules.variant

type recovery_cfg = {
  checkpoint_every : float option;
      (* None = only the initial post-population checkpoint *)
  crash_at : float option;
  max_crashes : int;
}

let default_recovery =
  { checkpoint_every = Some 5.0; crash_at = None; max_crashes = 8 }

type repl_cfg = {
  replicas : int;
  read_policy : Strip_repl.Cluster.read_policy;
  read_rate : float;
  read_cost_s : float;
  link : Strip_repl.Link.config;
  ship_every : float;
  partition_detect_s : float;
}

let default_repl =
  {
    replicas = 1;
    read_policy = Strip_repl.Cluster.Any;
    read_rate = 0.0;
    read_cost_s = 0.0;
    link = Strip_repl.Link.default_config;
    ship_every = 0.05;
    partition_detect_s = 0.1;
  }

type storage_cfg = {
  scrub_every : float option;
      (* None = no background scrubber: at-rest faults are only found if
         something reads them (the planted-bug configuration) *)
  retain : int;  (* checkpoint slots kept for CRC-failure fallback *)
}

let default_storage = { scrub_every = Some 0.5; retain = 2 }

type shard_cfg = {
  shards : int;
  shard_link : Strip_repl.Link.config;
  shard_ship_every : float;
  shard_resend_after : float;
  shard_crash_at : (int * float) option;  (* (shard id, simulated time) *)
  shard_checkpoint_every : float option;
}

let default_shard ~shards =
  {
    shards;
    shard_link = Strip_repl.Link.default_config;
    shard_ship_every = 0.05;
    shard_resend_after = 0.25;
    shard_crash_at = None;
    shard_checkpoint_every = Some 5.0;
  }

(* One deterministic fault in a chaos schedule, in absolute simulated
   time.  Crash and partition events are armed as scheduled engine tasks
   (re-armed on whatever instance is live after each escape); drop
   bursts are installed on the shipping links at cluster creation;
   checkpoint events force an extra checkpoint to race the surrounding
   faults. *)
type chaos_event =
  | Crash_at of float
  | Partition_at of { at : float; heal_after_s : float }
  | Drop_burst of { at : float; until_s : float; rate : float }
  | Checkpoint_at of float
  | Bitrot_at of { at : float; target : [ `Wal | `Checkpoint ]; frac : float }
  | Fsync_lie_at of float
  | Disk_full_at of { at : float; free_bytes : int; heal_after_s : float }

let chaos_event_time = function
  | Crash_at at | Checkpoint_at at | Fsync_lie_at at -> at
  | Partition_at { at; _ }
  | Drop_burst { at; _ }
  | Bitrot_at { at; _ }
  | Disk_full_at { at; _ } ->
    at

let is_storage_event = function
  | Bitrot_at _ | Fsync_lie_at _ | Disk_full_at _ -> true
  | Crash_at _ | Partition_at _ | Drop_burst _ | Checkpoint_at _ -> false

type config = {
  rule : rule_choice;
  delay : float;
  feed : Feed.config;
  sizes : Pta_tables.sizes;
  cost : Strip_sim.Cost_model.t;
  verify : bool;
  servers : int;
  lock_timeout_s : float;
  fault : Strip_txn.Fault.config option;
  retry : Strip_sim.Engine.retry option;
  overload : Strip_sim.Engine.overload option;
  trace : Strip_obs.Trace.t option;
  slo : Strip_obs.Slo.t option;
  provenance : Strip_obs.Provenance.t option;
  recovery : recovery_cfg option;
  repl : repl_cfg option;
  storage : storage_cfg option;
  chaos : chaos_event list;
  shard : shard_cfg option;
}

let default_config rule ~delay =
  {
    rule;
    delay;
    feed = Feed.default_config;
    sizes = Pta_tables.default_sizes;
    cost = Strip_sim.Cost_model.default;
    verify = true;
    servers = 1;
    lock_timeout_s = 5.0;
    fault = None;
    retry = None;
    overload = None;
    trace = None;
    slo = None;
    provenance = None;
    recovery = None;
    repl = None;
    storage = None;
    chaos = [];
    shard = None;
  }

let with_faults ?seed ?(retry = Strip_sim.Engine.default_retry) ~abort_rate cfg =
  { cfg with fault = Some (Strip_txn.Fault.abort_only ?seed abort_rate); retry = Some retry }

let quick cfg f =
  {
    cfg with
    feed = Feed.scaled cfg.feed f;
    sizes = Pta_tables.scaled_sizes cfg.sizes f;
  }

type recovery_metrics = {
  n_crashes : int;
  n_checkpoints : int;
  checkpoint_bytes : int;
  wal_appends : int;
  wal_fsyncs : int;
  wal_appended_bytes : int;
  wal_overhead_s : float;
  checkpoint_overhead_s : float;
  redo_commits : int;
  redo_ops : int;
  requeued : int;
  restored_rows : int;
  total_recovery_s : float;
  audit_clean : bool;
  audit_divergences : int;
  repairs : int;
}

type replica_metrics = {
  r_id : int;
  r_applied_lsn : int;
  r_segments : int;
  r_duplicates : int;
  r_reordered : int;
  r_bootstraps : int;
  r_reads : int;
  r_lag : Strip_obs.Histogram.summary option;
}

type repl_metrics = {
  n_replicas : int;
  read_policy : string;
  read_rate : float;
  n_reads : int;
  reads_primary : int;
  reads_replica : int;
  read_latency : Strip_obs.Histogram.summary option;
  read_throughput_per_s : float;
  n_failovers : int;
  promotion_lost_bytes : int;
  epoch : int;
  epochs : (int * int) list;
  promotions : (int * int * int) list;
  final_lsn : int;
  fenced_bytes : int;
  n_partitions : int;
  partition_drops : int;
  fenced_messages : int;
  segments_sent : int;
  segments_dropped : int;
  bytes_shipped : int;
  cluster_lag : Strip_obs.Histogram.summary option;
      (* replication lag merged across every replica's histogram — a
         cluster-level percentile row instead of primary-only *)
  per_replica : replica_metrics list;
}

(* End-of-run storage-fault accounting: the media-fault ledger unioned
   over every durable store the run touched (the live ones plus any
   abandoned at failover), scrubber work, salvage outcomes, and the
   final cleanliness verdict the chaos invariants check. *)
type storage_metrics = {
  injected_bitrot_wal : int;
  injected_bitrot_cp : int;
  injected_fsync_lie : int;
  faults_detected : int;
  faults_repaired : int;
  faults_quarantined : int;
  faults_expunged : int;
  faults_outstanding : int;
  scrub_passes : int;
  scrub_bytes : int;
  wal_corruptions : int;
  cp_corruptions : int;
  repaired_replica : int;
  repaired_checkpoint : int;
  scrub_salvaged_bytes : int;
  scrub_expunged_bytes : int;
  cp_fallbacks : int;
  salvaged_ranges : int;
  salvaged_bytes : int;
  quarantined_bytes : int;
  orphan_merges : int;
  disk_fulls : int;
  lied_bytes : int;
  ship_verify_skips : int;
  salvage_s : float;  (* modeled seconds spent on detection + repair *)
  final_clean : bool;
      (* end of run: WAL frame chain verifies and every retained
         checkpoint slot passes its CRC *)
}

(* One shard primary's slice of a sharded run. *)
type shard_row = {
  sh_id : int;
  sh_updates : int;
  sh_recomputes : int;
  sh_firings : int;
  sh_partials_out : int;  (* weighted partials this shard emitted *)
  sh_offered : int;  (* arrivals offered to this shard's queue *)
  sh_duplicates : int;  (* resends the (src, seq) dedup collapsed *)
  sh_merged : int;  (* arrivals folded into a pending entry *)
  sh_applied : int;  (* merged entries applied and released *)
  sh_crashes : int;
  sh_final_lsn : int;
}

type shard_metrics = {
  n_shards : int;
  sh_rows : shard_row list;
  sh_msgs : int;  (* shard-to-shard messages sent (partials + acks) *)
  sh_bytes : int;
  sh_partials : int;  (* first ships *)
  sh_acks : int;
  sh_reships : int;  (* resends past the ack deadline *)
  sh_recovery_s : float;  (* downtime summed over shard restarts *)
  cross_checks : int;  (* composites compared by the cross-shard audit *)
  cross_divergences : int;  (* comparisons beyond tolerance *)
}

type metrics = {
  label : string;
  delay : float;
  duration_s : float;
  servers : int;
  makespan_s : float;
  recompute_throughput_per_s : float;
  per_server_utilization : float list;
  n_lock_waits : int;
  n_lock_timeouts : int;
  lock_wait_s : Strip_obs.Histogram.summary option;
  utilization : float;
  n_updates : int;
  n_recompute : int;
  mean_recompute_us : float;
  p50_recompute_us : float;
  p90_recompute_us : float;
  p99_recompute_us : float;
  max_recompute_us : float;
  busy_update_s : float;
  busy_recompute_s : float;
  n_firings : int;
  n_merges : int;
  context_switches : int;
  expected_fanout : float;
  verified : bool option;
  max_abs_error : float;
  n_injected : int;
  n_aborts : int;
  n_retries : int;
  n_sheds : int;
  n_dead_letters : int;
  mean_recovery_s : float;
  staleness : (string * Strip_obs.Histogram.summary) list;
  registry : Strip_obs.Metrics.row list;
  recovery : recovery_metrics option;
  repl : repl_metrics option;
  storage : storage_metrics option;
  shard : shard_metrics option;
      (* present iff the run went through the sharded write path *)
  slo : Strip_obs.Slo.view_report list;
      (* one report per objective; empty when no SLO monitor is attached *)
  trace_spans : (string * int * int) list;
      (* (node, events buffered, events dropped) per traced node; empty
         when tracing is off *)
  cluster_traces : (string * Strip_obs.Trace.t) list;
      (* per-node span buffers for a merged cluster trace export, primary
         first; empty unless tracing a replicated run *)
}

let label_of = function
  | Comp_view v -> "comp_prices/" ^ Comp_rules.variant_name v
  | Option_view v -> "option_prices/" ^ Option_rules.variant_name v

let verify_tolerance = function
  | Comp_view _ -> 1e-6
  | Option_view _ -> 1e-9

(* Compare two sorted (name, value) association lists. *)
let max_error expected actual =
  let tbl = Hashtbl.create (List.length expected * 2) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) expected;
  List.fold_left
    (fun worst (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some e -> Float.max worst (Float.abs (v -. e))
      | None -> infinity)
    (if List.length expected = List.length actual then 0.0 else infinity)
    actual

(* Keys of [actual] missing from [expected] or off by more than [eps],
   plus the cardinality mismatch. *)
let n_divergent ~eps expected actual =
  let tbl = Hashtbl.create (2 * List.length expected) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) expected;
  List.fold_left
    (fun n (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some e when Float.abs (v -. e) <= eps -> n
      | _ -> n + 1)
    (abs (List.length expected - List.length actual))
    actual

let install_rules cfg db h =
  match cfg.rule with
  | Comp_view v -> Comp_rules.install db h v ~delay:cfg.delay
  | Option_view v -> Option_rules.install db h v ~delay:cfg.delay

let mk_db ?now ?durable ?fault (cfg : config) =
  (* Storage-fault runs arm every durable store a primary incarnation
     uses — including a promoted replica's copy — before the instance
     registers its metrics, so the media probes exist on every registry
     and ship-time verification covers every term. *)
  (match (cfg.storage, durable) with
  | Some _, Some d -> Strip_txn.Durable.arm_media d
  | _ -> ());
  (* The trace buffer, SLO monitor and provenance store are caller-owned
     and shared across every instance a crashy run burns through, so one
     causal story spans restarts and failovers. *)
  Strip_db.create ~cost:cfg.cost ?now ?durable ?fault ?retry:cfg.retry
    ?overload:cfg.overload ~servers:cfg.servers
    ~lock_timeout_s:cfg.lock_timeout_s ?trace:cfg.trace ?slo:cfg.slo
    ?provenance:cfg.provenance ()

(* Config implications, resolved once.  Replicas bootstrap from
   checkpoints and apply shipped WAL bytes, a chaos schedule needs the
   crash-restart loop, and the partial-delta protocol's exactly-once
   guarantee rests on Shard_* WAL records: each implies the durability
   layer.  Storage-fault events imply the storage substrate.  Shards are
   neither replicated nor chaos-driven, so a sharded run drops both. *)
let resolve (cfg : config) =
  let cfg =
    match cfg.shard with
    | Some _ -> { cfg with repl = None; chaos = [] }
    | None -> cfg
  in
  let needs_recovery =
    cfg.shard <> None || cfg.chaos <> []
    || match cfg.repl with Some r -> r.replicas > 0 | None -> false
  in
  let cfg =
    if cfg.recovery = None && needs_recovery then
      { cfg with recovery = Some default_recovery }
    else cfg
  in
  if cfg.storage = None && List.exists is_storage_event cfg.chaos then
    { cfg with storage = Some default_storage }
  else cfg

(* Counters of one primary, folded from each incarnation as it dies and
   from the live one when the run ends: an instance's {!Strip_sim.Stats}
   covers only its own life.  Histograms merge exactly, so lock waits
   and retry latencies span every incarnation too. *)
type acc = {
  mutable a_updates : int;
  mutable a_recompute : int;
  mutable a_firings : int;
  mutable a_merges : int;
  mutable a_injected : int;
  mutable a_aborts : int;
  mutable a_retries : int;
  mutable a_sheds : int;
  mutable a_dead : int;
  mutable a_ctxsw : int;
  mutable a_lock_waits : int;
  mutable a_lock_timeouts : int;
  mutable a_busy_update_us : float;
  mutable a_busy_recompute_us : float;
  a_lock_h : Strip_obs.Histogram.t;
  a_retry_h : Strip_obs.Histogram.t;  (* first failure -> eventual success *)
}

let zero_acc () =
  {
    a_updates = 0;
    a_recompute = 0;
    a_firings = 0;
    a_merges = 0;
    a_injected = 0;
    a_aborts = 0;
    a_retries = 0;
    a_sheds = 0;
    a_dead = 0;
    a_ctxsw = 0;
    a_lock_waits = 0;
    a_lock_timeouts = 0;
    a_busy_update_us = 0.0;
    a_busy_recompute_us = 0.0;
    a_lock_h = Strip_obs.Histogram.create ();
    a_retry_h = Strip_obs.Histogram.create ();
  }

let accumulate acc db =
  let open Strip_txn in
  let st = Strip_db.stats db in
  let mgr = Strip_db.rules db in
  acc.a_updates <- acc.a_updates + Strip_sim.Stats.tasks_run st Task.Update;
  acc.a_recompute <- acc.a_recompute + Strip_sim.Stats.n_recompute st;
  acc.a_firings <- acc.a_firings + Rule_manager.n_rule_firings mgr;
  acc.a_merges <- acc.a_merges + Rule_manager.n_merges mgr;
  acc.a_injected <-
    (acc.a_injected
    +
    match Strip_db.fault_injector db with
    | Some fi -> Fault.total_injected fi
    | None -> 0);
  acc.a_aborts <- acc.a_aborts + Strip_sim.Stats.n_aborts st;
  acc.a_retries <- acc.a_retries + Strip_sim.Stats.n_retries st;
  acc.a_sheds <- acc.a_sheds + Strip_sim.Stats.n_sheds st;
  acc.a_dead <- acc.a_dead + Strip_sim.Stats.n_dead_letters st;
  acc.a_ctxsw <- acc.a_ctxsw + Strip_sim.Stats.context_switches st;
  acc.a_lock_waits <- acc.a_lock_waits + Strip_sim.Stats.n_lock_waits st;
  acc.a_lock_timeouts <-
    acc.a_lock_timeouts + Strip_sim.Stats.n_lock_timeouts st;
  acc.a_busy_update_us <-
    acc.a_busy_update_us +. Strip_sim.Stats.busy_us_of st Task.Update;
  acc.a_busy_recompute_us <-
    acc.a_busy_recompute_us +. Strip_sim.Stats.busy_us_of st Task.Recompute;
  Strip_obs.Histogram.merge_into ~dst:acc.a_lock_h
    (Strip_sim.Stats.lock_wait_hist st);
  Strip_obs.Histogram.merge_into ~dst:acc.a_retry_h
    (Strip_sim.Stats.recovery_hist st)

(* Running totals of recovery work across all crashes of one run. *)
type rec_totals = {
  mutable t_crashes : int;  (* every restart attempt, retries included *)
  mutable t_partitions : int;
  mutable t_promotions : (int * int * int) list;
      (* (epoch, promoted id, promoted lsn), newest first *)
  mutable t_redo_commits : int;
  mutable t_redo_ops : int;
  mutable t_requeued : int;
  mutable t_restored_rows : int;
  mutable t_recovery_s : float;
  mutable t_cp_fallbacks : int;
  mutable t_salvaged_ranges : int;
  mutable t_salvaged_bytes : int;
  mutable t_quarantined_bytes : int;
  mutable t_orphan_merges : int;
}

let zero_totals () =
  {
    t_crashes = 0;
    t_partitions = 0;
    t_promotions = [];
    t_redo_commits = 0;
    t_redo_ops = 0;
    t_requeued = 0;
    t_restored_rows = 0;
    t_recovery_s = 0.0;
    t_cp_fallbacks = 0;
    t_salvaged_ranges = 0;
    t_salvaged_bytes = 0;
    t_quarantined_bytes = 0;
    t_orphan_merges = 0;
  }

let add_recovery totals (rs : Recovery.stats) ~down_s =
  totals.t_redo_commits <- totals.t_redo_commits + rs.Recovery.redo_commits;
  totals.t_redo_ops <- totals.t_redo_ops + rs.Recovery.redo_ops;
  totals.t_requeued <- totals.t_requeued + rs.Recovery.requeued;
  totals.t_restored_rows <- totals.t_restored_rows + rs.Recovery.restored_rows;
  totals.t_recovery_s <- totals.t_recovery_s +. down_s;
  totals.t_cp_fallbacks <- totals.t_cp_fallbacks + rs.Recovery.cp_fallbacks;
  totals.t_salvaged_ranges <-
    totals.t_salvaged_ranges + rs.Recovery.salvaged_ranges;
  totals.t_salvaged_bytes <- totals.t_salvaged_bytes + rs.Recovery.salvaged_bytes;
  totals.t_quarantined_bytes <-
    totals.t_quarantined_bytes + rs.Recovery.quarantined_bytes;
  totals.t_orphan_merges <- totals.t_orphan_merges + rs.Recovery.orphan_merges

let note_promotion totals (p : Strip_repl.Cluster.promotion) =
  totals.t_promotions <-
    (p.Strip_repl.Cluster.epoch, p.promoted, p.promoted_lsn)
    :: totals.t_promotions

(* (Re-)arm the chaos events still strictly in the future on the live
   instance — called at the start of the drive and after every crash or
   failover, so a schedule keeps firing across instance boundaries
   (events inside an outage window are consumed by it). *)
let arm_chaos cfg db ~now =
  List.iter
    (fun ev ->
      match ev with
      | Crash_at at -> if at > now then Strip_db.schedule_crash db ~at
      | Partition_at { at; heal_after_s } ->
        if at > now then Strip_db.schedule_partition db ~at ~heal_after_s
      | Checkpoint_at at ->
        if at > now then
          Strip_db.schedule_checkpoints db ~every:at ~start:at ~until:at ()
      | Bitrot_at { at; target; frac } ->
        if at > now then Strip_db.schedule_bitrot db ~at ~target ~frac
      | Fsync_lie_at at -> if at > now then Strip_db.schedule_fsync_lie db ~at
      | Disk_full_at { at; free_bytes; heal_after_s } ->
        (* The capacity clamp lives on the WAL, which survives restarts:
           a post-crash instance re-arms only the heal still due, so a
           crash inside the full window cannot leave the disk full
           forever. *)
        if at > now then begin
          Strip_db.schedule_disk_full db ~at ~free_bytes;
          Strip_db.schedule_disk_heal db ~at:(at +. heal_after_s)
        end
        else if at +. heal_after_s > now then
          Strip_db.schedule_disk_heal db ~at:(at +. heal_after_s)
      | Drop_burst _ -> ())
    cfg.chaos

(* Interleave policy-routed read-only queries with the engine: run to the
   next read's release time, serve it at that instant against whichever
   node the router picks, repeat.  With no cluster this is exactly
   [Strip_db.run] — the replication-free path is untouched. *)
let run_with_reads ~cluster db =
  match cluster with
  | None -> Strip_db.run db
  | Some c ->
    let rec loop () =
      match Strip_repl.Cluster.next_read_time c with
      | Some tr ->
        Strip_db.run ~until:tr db;
        Strip_repl.Cluster.serve_read c ~now:tr;
        loop ()
      | None -> Strip_db.run db
    in
    loop ()

(* One run's primaries and what their drive loops share.  An unsharded
   run has one primary; a sharded run has one per shard, each with its
   own durable store, tables and slice of the feed. *)
type run = {
  cfg : config;
  part : Partitioner.t option;  (* [Some _] iff sharded *)
  durables : Strip_txn.Durable.t option array;
  handles : Pta_tables.handles array;  (* re-pointed at every recovery *)
  quotes : Feed.quote array array;
      (* each primary's slice of the feed, kept to resubmit its tail
         after a crash (empty without recovery) *)
  tallies : acc array;
  totals : rec_totals;
  expected_fanout : float;  (* E[derived rows touched per update] *)
}

(* Crashes and partitions share one budget: past [max_crashes] escapes,
   fresh instances get zeroed crash/partition rates so a hostile seed
   cannot prevent convergence (scheduled events fire once by
   construction). *)
let budget_fault r =
  let open Strip_txn.Fault in
  match (r.cfg.recovery, r.cfg.fault) with
  | Some rc, Some c
    when r.totals.t_crashes + r.totals.t_partitions >= rc.max_crashes ->
    Some { c with rates = { c.rates with crash = 0.0; partition = 0.0 } }
  | _, fault -> fault

(* Every restart attempt counts as a crash and spends budget. *)
let next_fault r =
  r.totals.t_crashes <- r.totals.t_crashes + 1;
  budget_fault r

(* A fresh incarnation of primary [sid] on its own durable store. *)
let remake r sid ~now =
  let fault = next_fault r in
  mk_db ~now ?durable:r.durables.(sid) ?fault r.cfg

let install (cfg : config) part sid db h =
  match (cfg.rule, part) with
  | Comp_view v, Some p ->
    Comp_rules.install_routed db h ~sid ~owner:(Partitioner.shard_of_comp p) v
      ~delay:cfg.delay
  | _ ->
    (* Options are fully local (stocks / stock_stdev / options_list are
       co-partitioned by symbol): the plain install never emits a
       partial. *)
    install_rules cfg db h

(* Recovery's reinstall hook: reattach primary [sid]'s handles to the
   fresh instance and reinstall its rules. *)
let reinstall r sid db =
  let h = Pta_tables.reattach db in
  r.handles.(sid) <- h;
  install r.cfg r.part sid db h

let target r sid =
  {
    Strip_ingest.Import.stocks = r.handles.(sid).Pta_tables.stocks;
    by_symbol = r.handles.(sid).Pta_tables.stocks_by_symbol;
  }

(* Quotes at or before a crash (or partition cut) are consumed or lost
   input; the rest of primary [sid]'s feed resumes on the recovered
   instance.  Re-running a quote would be harmless (prices are absolute),
   so the conservative cut is exact-time exclusive. *)
let requote r sid db ~after =
  let rest =
    Array.of_seq
      (Seq.filter
         (fun (q : Feed.quote) -> q.Feed.time > after)
         (Array.to_seq r.quotes.(sid)))
  in
  ignore (Strip_ingest.Import.replay db (target r sid) rest)

(* Database(s), population, rule install, feed and replay, in one order
   for every topology.  A sharded run hash-partitions the base tables
   and the feed by symbol across its primaries. *)
let setup (cfg : config) =
  let part =
    Option.map
      (fun s ->
        (* Multi-engine determinism: the task/span id wells are global, so
           an in-process re-run must restart them from the same origin or
           every id (and thus every trace byte) shifts. *)
        Strip_txn.Task.reset_ids ();
        Partitioner.create ~shards:s.shards)
      cfg.shard
  in
  let n = match part with Some p -> Partitioner.n_shards p | None -> 1 in
  let durables =
    Array.init n (fun _ ->
        Option.map
          (fun _ ->
            let retain =
              match cfg.storage with Some s -> max 1 s.retain | None -> 1
            in
            Strip_txn.Durable.create ~retain ())
          cfg.recovery)
  in
  let dbs =
    Array.map (fun durable -> mk_db ?durable ?fault:cfg.fault cfg) durables
  in
  let handles =
    match part with
    | None -> [| Pta_tables.populate dbs.(0) ~feed:cfg.feed cfg.sizes |]
    | Some p ->
      Pta_tables.populate_sharded dbs
        ~owner_sym:(Partitioner.shard_of_symbol p)
        ~owner_comp:(Partitioner.shard_of_comp p) ~feed:cfg.feed cfg.sizes
  in
  let weights = Feed.activity_weights cfg.feed in
  (* Membership rows are partitioned by symbol owner, so the global
     E[fanout] is the sum of each primary's. *)
  let expected_fanout =
    Array.fold_left
      (fun acc h ->
        acc
        +.
        match cfg.rule with
        | Comp_view _ -> Pta_tables.expected_comps_per_update h ~weights
        | Option_view _ -> Pta_tables.expected_options_per_update h ~weights)
      0.0 handles
  in
  Array.iteri (fun sid db -> install cfg part sid db handles.(sid)) dbs;
  let quotes = Feed.generate cfg.feed in
  let quotes =
    match part with
    | None -> [| quotes |]
    | Some p ->
      Array.init n (fun sid ->
          Array.of_seq
            (Seq.filter
               (fun (q : Feed.quote) ->
                 Partitioner.shard_of_symbol p (Taq.symbol q.Feed.stock) = sid)
               (Array.to_seq quotes)))
  in
  let r =
    {
      cfg;
      part;
      durables;
      handles;
      quotes = (if cfg.recovery = None then [||] else quotes);
      tallies = Array.init n (fun _ -> zero_acc ());
      totals = zero_totals ();
      expected_fanout;
    }
  in
  Array.iteri
    (fun sid db ->
      ignore (Strip_ingest.Import.replay db (target r sid) quotes.(sid)))
    dbs;
  (r, dbs)

(* The single-primary drive: run the engine until it drains.  A
   {!Strip_txn.Fault.Crashed} escape condemns the volatile state and
   either restarts in place against the shared durable store or, with
   replicas attached, fails over to the replica with the highest applied
   LSN; a partition longer than the detection timeout fails over too,
   while the deposed primary rides out its split brain.  Either way
   {!Recovery.until_up} charges the modeled recovery latency as downtime
   before the rest of the feed resumes on the new instance. *)
let drive r rcfg ~mk_cluster ~arm_scrub ~abandon db0 =
  let open Strip_txn in
  let module C = Strip_repl.Cluster in
  let cfg = r.cfg in
  Strip_db.checkpoint db0;
  (* Bound the checkpoint schedule by the feed: an unbounded schedule would
     keep the event queue non-empty forever and the engine would never
     drain.  The tail of the run past the last periodic checkpoint is
     covered by the WAL. *)
  let cp_until = cfg.feed.Feed.duration in
  (* The cluster bootstraps its replicas from the checkpoint just taken. *)
  let cluster = mk_cluster db0 in
  (match cluster with
  | Some c ->
    C.register_metrics c (Strip_db.metrics db0);
    C.schedule_shipping c ~until:cp_until
  | None -> ());
  (* Checkpoints, chaos events and the scrubber die with their engine,
     so every incarnation re-arms them; only the first gets the
     scheduled crash. *)
  let arm ?crash_at db =
    (match rcfg.checkpoint_every with
    | Some every -> Strip_db.schedule_checkpoints db ~every ~until:cp_until ()
    | None -> ());
    Option.iter (fun at -> Strip_db.schedule_crash db ~at) crash_at;
    arm_chaos cfg db ~now:(Strip_db.now db);
    arm_scrub db cluster
  in
  arm ?crash_at:rcfg.crash_at db0;
  let db = ref db0 in
  (* Back in service: book the recovery, re-seed a failed-over cluster
     from the new primary's fresh checkpoint (after the downtime
     accounting — resynchronization proceeds in parallel with resumed
     service), let [settle] dispose of the old primary, then resume the
     feed past [cut] on the new instance. *)
  let resume ?(settle = ignore) ~cut ~failover (ndb, rs, down_s) =
    add_recovery r.totals rs ~down_s;
    Option.iter
      (fun c ->
        C.resume c ~now:(Strip_db.now ndb) ~ship_until:cp_until;
        C.register_metrics c (Strip_db.metrics ndb))
      failover;
    settle ();
    requote r 0 ndb ~after:cut;
    arm ndb;
    db := ndb
  in
  let finished = ref false in
  while not !finished do
    match run_with_reads ~cluster !db with
    | () -> finished := true
    | exception Fault.Crashed _ -> (
      let t_crash = Strip_db.now !db in
      accumulate r.tallies.(0) !db;
      Strip_db.crash !db;
      match cluster with
      | Some c when C.n_replicas c > 0 ->
        (* Failover: promotion recovers from the elected replica's
           durable copy (bootstrap image + shipped tail), and the dead
           primary's store leaves service. *)
        abandon !db;
        resume ~cut:t_crash ~failover:(Some c)
          (Recovery.until_up ~cost:cfg.cost (fun () ->
               let fault = next_fault r in
               let ndb, rs, p =
                 C.promote c ~now:t_crash
                   ~mk_db:(fun durable -> mk_db ~now:t_crash ~durable ?fault cfg)
                   ~reinstall:(reinstall r 0)
               in
               note_promotion r.totals p;
               (ndb, rs)))
      | _ ->
        resume ~cut:t_crash ~failover:None
          (Recovery.restart ~cost:cfg.cost
             ~fresh:(fun () -> remake r 0 ~now:t_crash)
             ~reinstall:(reinstall r 0) ()))
    | exception Fault.Partitioned { heal_after_s; _ } -> (
      let t_part = Strip_db.now !db in
      let detect_s =
        match cfg.repl with Some rp -> rp.partition_detect_s | None -> 0.1
      in
      match cluster with
      | Some c when C.n_replicas c > 0 && heal_after_s > detect_s ->
        let heal_at = t_part +. heal_after_s in
        let detect_at = t_part +. detect_s in
        r.totals.t_partitions <- r.totals.t_partitions + 1;
        C.begin_partition c ~now:t_part ~heal_at;
        (* The isolated primary is alive, not dead: it keeps committing
           and its surviving shipping chain keeps sending in the old
           term, but every send dies on the epoch-tagged partition
           windows.  A nested crash fells it for good; a nested
           partition of an already-cut node changes nothing. *)
        let old_db = !db in
        let old_alive = ref true in
        let rec run_doomed until =
          match Strip_db.run ~until old_db with
          | () -> ()
          | exception Fault.Crashed _ -> old_alive := false
          | exception Fault.Partitioned _ -> run_doomed until
        in
        run_doomed detect_at;
        (* Detection timeout expired: the majority side elects a new
           primary over the partition.  A candidate that crashes
           mid-recovery retries the election, spending crash budget. *)
        let retrying = ref false in
        let up =
          Recovery.until_up ~cost:cfg.cost ~record_crash:false (fun () ->
              let fault = if !retrying then next_fault r else budget_fault r in
              retrying := true;
              let ndb, rs, p =
                C.promote_isolated c ~now:detect_at
                  ~mk_db:(fun durable -> mk_db ~now:detect_at ~durable ?fault cfg)
                  ~reinstall:(reinstall r 0)
              in
              note_promotion r.totals p;
              (ndb, rs))
        in
        (* Split brain, contained: the new term opens at once while the
           old primary runs to the heal point, accumulating a divergent
           tail nobody will ever see; then it is fenced — it discards
           that tail and stands by to rejoin as a replica at the next
           re-seed.  Quotes after the cut belong to the new timeline. *)
        resume
          ~settle:(fun () ->
            if !old_alive then run_doomed heal_at;
            accumulate r.tallies.(0) old_db;
            Strip_db.crash old_db;
            ignore (C.heal c ~now:heal_at);
            abandon old_db)
          ~cut:t_part ~failover:(Some c) up
      | _ ->
        (* No cluster to fail over to, or a blip shorter than the
           detection timeout: the node keeps running (volatile state is
           intact — only the raising task was discarded).  With a
           cluster attached, the blip still drops its sends for the
           window; the shipper re-covers the gap on later ticks. *)
        (match cluster with
        | Some c when C.n_replicas c > 0 && heal_after_s > 0.0 ->
          r.totals.t_partitions <- r.totals.t_partitions + 1;
          C.begin_partition c ~now:t_part ~heal_at:(t_part +. heal_after_s)
        | _ -> ()))
  done;
  (!db, cluster)

(* The sharded drive: the primaries run under the {!Coordinator}'s
   partial-delta protocol; a crashed shard restarts in place and each
   dead incarnation folds into its shard's tally. *)
let drive_shards r (s : shard_cfg) dbs =
  let cfg = r.cfg in
  let cb =
    {
      Coordinator.remake = (fun ~sid ~now -> remake r sid ~now);
      reinstall = (fun ~sid db -> reinstall r sid db);
      apply =
        (fun ~sid _db txn ~key ~delta ->
          match cfg.rule with
          | Comp_view _ ->
            Comp_rules.apply_partial r.handles.(sid) txn ~key ~delta
          | Option_view _ -> ());
      requote = (fun ~sid db ~after -> requote r sid db ~after);
      recovered = (fun ~sid:_ ~down_s rs -> add_recovery r.totals rs ~down_s);
      retired = (fun ~sid db -> accumulate r.tallies.(sid) db);
    }
  in
  let ccfg =
    {
      Coordinator.link = s.shard_link;
      ship_every = s.shard_ship_every;
      resend_after = s.shard_resend_after;
      checkpoint_every = s.shard_checkpoint_every;
      cost = cfg.cost;
    }
  in
  let coord = Coordinator.create ~cfg:ccfg ~cb dbs in
  Coordinator.checkpoint_all coord;
  (match s.shard_crash_at with
  | Some (sid, at) when sid >= 0 && sid < Array.length dbs ->
    Strip_db.schedule_crash dbs.(sid) ~at
  | Some (sid, _) ->
    invalid_arg
      (Printf.sprintf "Experiment.run: shard_crash_at shard %d out of range" sid)
  | None -> ());
  Coordinator.run coord ~until:cfg.feed.Feed.duration;
  coord

(* Consistency audit over every primary: the recovered queues have
   drained, so each view must equal its recomputation; divergences
   become repair transactions and the audit reruns.  Returns (all clean,
   divergences left, repairs enqueued).  Only the view this run
   maintains is audited — the other has no installed rule, so it is
   stale by design — and only where it is locally complete: a sharded
   [comp_prices] is a plain partition (its members live everywhere), so
   composites are judged by the cross-shard check instead. *)
let audit_and_repair (cfg : config) dbs =
  (* Incrementally-maintained composites accumulate float increments,
     so audit with the same tolerance the end-to-end verification uses;
     anything past it is a real divergence worth repairing. *)
  let eps = verify_tolerance cfg.rule in
  let views =
    match (cfg.rule, cfg.shard) with
    | Comp_view _, None -> [ "comp_prices" ]
    | Comp_view _, Some _ -> []
    | Option_view _, _ -> [ "option_prices" ]
  in
  Array.fold_left
    (fun ((clean, divergences, repairs) as acc) db ->
      if views = [] then acc
      else begin
        let first = Auditor.audit ~eps ~views db in
        let n =
          if Auditor.clean first then 0
          else begin
            let n = Auditor.enqueue_repairs db first in
            Strip_db.run db;
            n
          end
        in
        let final = if n = 0 then first else Auditor.audit ~eps ~views db in
        ( clean && Auditor.clean final,
          divergences + List.length final.Auditor.divergences,
          repairs + n )
      end)
    (true, 0, 0) dbs

let summary_opt h =
  if Strip_obs.Histogram.count h = 0 then None
  else Some (Strip_obs.Histogram.summary h)

let run (cfg : config) =
  let cfg = resolve cfg in
  let r, dbs = setup cfg in
  Meter.reset ();
  Array.iter (fun db -> Rule_manager.reset_stats (Strip_db.rules db)) dbs;
  (* The background scrubber runs on an unsharded primary only. *)
  let scrub_stats =
    match (cfg.storage, cfg.shard) with
    | Some _, None -> Some (Scrub.create ())
    | _ -> None
  in
  let abandoned : Strip_txn.Durable.t list ref = ref [] in
  (* Failing over abandons the dead primary's durable store: nothing in
     it can influence a served read anymore, but its media-fault ledger
     still counts toward the run's silent-corruption audit. *)
  let abandon db =
    match Strip_db.durable db with
    | Some od when not (List.memq od !abandoned) ->
      Strip_txn.Durable.note_abandoned od;
      abandoned := od :: !abandoned
    | _ -> ()
  in
  let fetch_of cluster =
    Option.map
      (fun c ~from_lsn ~len -> Strip_repl.Cluster.fetch_clean c ~from_lsn ~len)
      cluster
  in
  (* (Re-)schedule the background scrubber on the live instance — like
     checkpoints, the chain dies with its engine at a crash and must be
     re-armed on every incarnation. *)
  let arm_scrub db cluster =
    match (cfg.storage, scrub_stats) with
    | Some { scrub_every = Some every; _ }, Some st
      when Strip_db.durable db <> None ->
      Scrub.schedule st db ~every ~until:cfg.feed.Feed.duration
        ?fetch:(fetch_of cluster) ()
    | _ -> ()
  in
  (* Per-replica span buffers are owned here rather than by the cluster so
     they survive failover re-seeding; they merge with the primary buffer
     into one cluster-wide trace export. *)
  let replica_traces =
    match (cfg.trace, cfg.repl) with
    | Some _, Some rp when rp.replicas > 0 ->
      List.init rp.replicas (fun i ->
          (Printf.sprintf "replica-%d" i, Strip_obs.Trace.create ()))
    | _ -> []
  in
  let mk_cluster db =
    match cfg.repl with
    | None -> None
    | Some rp ->
      let read_table, read_key_col =
        match cfg.rule with
        | Comp_view _ -> ("comp_prices", "comp")
        | Option_view _ -> ("option_prices", "option_symbol")
      in
      let read_keys =
        Strip_db.query_rows db
          (Printf.sprintf "select %s from %s" read_key_col read_table)
        |> List.map (fun row -> Value.to_string row.(0))
        |> Array.of_list
      in
      let ccfg =
        {
          Strip_repl.Cluster.n_replicas = rp.replicas;
          link = rp.link;
          ship_every = rp.ship_every;
          read_policy = rp.read_policy;
          read_rate = rp.read_rate;
          read_cost_s = rp.read_cost_s;
          seed = 11;
        }
      in
      let c =
        Strip_repl.Cluster.create
          ~trace_for:(fun i -> Option.map snd (List.nth_opt replica_traces i))
          ccfg ~primary:db ~read_table ~read_key_col ~read_keys
          ~read_until:cfg.feed.Feed.duration
      in
      (* Drop bursts live on the links, which survive failovers. *)
      List.iter
        (function
          | Drop_burst { at; until_s; rate } ->
            for i = 0 to Strip_repl.Cluster.n_replicas c - 1 do
              Strip_repl.Link.add_drop_burst
                (Strip_repl.Cluster.link c i)
                ~from_s:at ~until_s ~rate
            done
          | _ -> ())
        cfg.chaos;
      Some c
  in
  let finals, cluster, coord =
    match (cfg.shard, cfg.recovery) with
    | Some s, _ ->
      let coord = drive_shards r s dbs in
      (Array.mapi (fun i _ -> Coordinator.db coord i) dbs, None, Some coord)
    | None, Some rcfg ->
      let db, cluster = drive r rcfg ~mk_cluster ~arm_scrub ~abandon dbs.(0) in
      ([| db |], cluster, None)
    | None, None ->
      (* Only reachable with zero replicas: a read pump with no shipping
         needs no durability layer. *)
      let cluster = mk_cluster dbs.(0) in
      Option.iter
        (fun c ->
          Strip_repl.Cluster.register_metrics c (Strip_db.metrics dbs.(0)))
        cluster;
      run_with_reads ~cluster dbs.(0);
      (dbs, cluster, None)
  in
  let db0 = finals.(0) in
  (* One last scrub pass before the administrative catch-up, so a fault
     injected after the final periodic tick is still detected and
     repaired before the run is judged (and before replicas converge on
     the final log). *)
  (match (cfg.storage, scrub_stats) with
  | Some { scrub_every = Some _; _ }, Some st when Strip_db.durable db0 <> None
    ->
    Scrub.scrub ?fetch:(fetch_of cluster) st db0
  | _ -> ());
  (* Converge the replicas administratively so end-of-run lag/LSN metrics
     (and the tests) compare equals against the final primary. *)
  Option.iter
    (fun c -> Strip_repl.Cluster.final_sync c ~now:(Strip_db.now db0))
    cluster;
  (* Consistency audit (recovery runs only). *)
  let audit = Option.map (fun _ -> audit_and_repair cfg finals) cfg.recovery in
  (* Close any violation window still open at end of run (audit repairs
     above were the last possible staleness samples). *)
  Option.iter Strip_obs.Slo.finish cfg.slo;
  (* The live incarnations join the fold: every count below sums over
     all primaries and every incarnation each one burned through. *)
  Array.iteri (fun sid db -> accumulate r.tallies.(sid) db) finals;
  let open Strip_txn in
  let n = Array.length finals in
  let duration_s = cfg.feed.Feed.duration in
  let eps = verify_tolerance cfg.rule in
  (* The from-scratch oracle over every primary's base tables; on a
     sharded run it is also the cross-shard audit, the check no single
     shard can run alone. *)
  let oracle =
    if cfg.verify || coord <> None then
      Some
        (match cfg.rule with
        | Comp_view _ ->
          ( Comp_rules.recompute_from_scratch_sharded r.handles,
            Comp_rules.maintained_sharded r.handles )
        | Option_view _ ->
          ( Option_rules.recompute_from_scratch_sharded r.handles,
            Option_rules.maintained_sharded r.handles ))
    else None
  in
  let cross_checks, cross_divergences =
    match (coord, oracle) with
    | Some _, Some (expected, actual) ->
      (List.length expected, n_divergent ~eps expected actual)
    | _ -> (0, 0)
  in
  let audit_clean =
    match audit with
    | Some (clean, _, _) -> clean && cross_divergences = 0
    | None -> true
  in
  let verified, max_abs_error =
    match oracle with
    | Some (expected, actual) when cfg.verify ->
      let err = max_error expected actual in
      (* A sharded verdict also needs every shard's own audit clean. *)
      (Some (err <= eps && (coord = None || audit_clean)), err)
    | _ -> (None, nan)
  in
  let tallies = Array.to_list r.tallies in
  let sum f = List.fold_left (fun t a -> t + f a) 0 tallies in
  let sumf f = List.fold_left (fun t a -> t +. f a) 0.0 tallies in
  let merged f = Strip_obs.Histogram.merge (List.map f tallies) in
  let stats = Array.map Strip_db.stats finals in
  (* Makespan: the simulated instant the last dispatched task finished
     (each clock ends on its completion event).  Recompute throughput
     over the makespan is the quantity the server sweep improves: an
     overloaded single server drains its backlog long after the feed
     ends, and extra servers shrink that tail. *)
  let makespan_s =
    Array.fold_left (fun m db -> Float.max m (Strip_db.now db)) 0.0 finals
  in
  let n_recompute = sum (fun a -> a.a_recompute) in
  (* Service-time percentiles report the busiest primary's recompute
     distribution. *)
  let busiest =
    Array.fold_left
      (fun best st ->
        if Strip_sim.Stats.n_recompute st > Strip_sim.Stats.n_recompute best
        then st
        else best)
      stats.(0) stats
  in
  let staleness =
    let tables =
      Array.to_list stats
      |> List.concat_map Strip_sim.Stats.staleness_tables
      |> List.sort_uniq compare
    in
    List.map
      (fun table ->
        let hs =
          Array.to_list stats
          |> List.filter_map (fun st -> Strip_sim.Stats.staleness_of st table)
        in
        (table, Strip_obs.Histogram.summary (Strip_obs.Histogram.merge hs)))
      tables
  in
  let registry =
    match coord with
    | None -> Strip_obs.Metrics.snapshot (Strip_db.metrics db0)
    | Some _ ->
      (* One report, N registries: every shard's rows tagged with a
         [shard] label and re-sorted into a single deterministic
         snapshot. *)
      Array.to_list finals
      |> List.mapi (fun i db ->
             List.map
               (fun (row : Strip_obs.Metrics.row) ->
                 {
                   row with
                   Strip_obs.Metrics.labels =
                     ("shard", string_of_int i) :: row.Strip_obs.Metrics.labels;
                 })
               (Strip_obs.Metrics.snapshot (Strip_db.metrics db)))
      |> List.concat
      |> List.sort compare
  in
  (* After a failover a primary's live durable store is the promoted
     replica's copy, not the one the run started with. *)
  let live = Array.to_list finals |> List.filter_map Strip_db.durable in
  let sum_live f = List.fold_left (fun t d -> t + f d) 0 live in
  let sum_live_wal f = sum_live (fun d -> f (Durable.wal d)) in
  let recovery =
    Option.map
      (fun (_, divergences, repairs) ->
        {
          n_crashes = r.totals.t_crashes;
          n_checkpoints = sum_live Durable.n_checkpoints;
          checkpoint_bytes = sum_live Durable.last_checkpoint_bytes;
          wal_appends = sum_live_wal Wal.n_appends;
          wal_fsyncs = sum_live_wal Wal.n_fsyncs;
          wal_appended_bytes = sum_live_wal Wal.appended_bytes;
          wal_overhead_s =
            1e-6
            *. Strip_sim.Cost_model.charge cfg.cost
                 [
                   ("wal_append", Meter.get "wal_append");
                   ("wal_fsync", Meter.get "wal_fsync");
                 ];
          checkpoint_overhead_s =
            1e-6
            *. Strip_sim.Cost_model.charge cfg.cost
                 [ ("checkpoint_row", Meter.get "checkpoint_row") ];
          redo_commits = r.totals.t_redo_commits;
          redo_ops = r.totals.t_redo_ops;
          requeued = r.totals.t_requeued;
          restored_rows = r.totals.t_restored_rows;
          total_recovery_s = r.totals.t_recovery_s;
          audit_clean;
          audit_divergences = divergences + cross_divergences;
          repairs;
        })
      audit
  in
  let repl =
    Option.map
      (fun c ->
        let module C = Strip_repl.Cluster in
        let module R = Strip_repl.Replica in
        let n_reads = C.reads_issued c in
        let last_done = C.last_read_done c in
        {
          n_replicas = C.n_replicas c;
          read_policy =
            (match cfg.repl with
            | Some rp -> C.policy_string rp.read_policy
            | None -> "any");
          read_rate =
            (match cfg.repl with Some rp -> rp.read_rate | None -> 0.0);
          n_reads;
          reads_primary = C.reads_primary c;
          reads_replica = C.reads_replica c;
          read_latency = summary_opt (C.read_latency c);
          read_throughput_per_s =
            (if last_done <= 0.0 then 0.0
             else float_of_int n_reads /. last_done);
          n_failovers = C.n_failovers c;
          promotion_lost_bytes = C.lost_bytes_total c;
          epoch = C.epoch c;
          epochs = C.epoch_history c;
          promotions = List.rev r.totals.t_promotions;
          final_lsn =
            (match Strip_db.durable db0 with
            | Some d -> Wal.durable_end (Durable.wal d)
            | None -> 0);
          fenced_bytes = C.fenced_bytes_total c;
          n_partitions = C.n_partitions c;
          partition_drops = C.partition_drops_total c;
          fenced_messages = C.fenced_messages_total c;
          segments_sent = C.segments_sent c;
          segments_dropped = C.segments_dropped c;
          bytes_shipped = C.bytes_shipped c;
          cluster_lag =
            summary_opt
              (Strip_obs.Histogram.merge
                 (List.init (C.n_replicas c) (fun i -> R.lag (C.replica c i))));
          per_replica =
            List.init (C.n_replicas c) (fun i ->
                let node = C.replica c i in
                {
                  r_id = R.id node;
                  r_applied_lsn = R.applied_lsn node;
                  r_segments = R.n_segments node;
                  r_duplicates = R.n_duplicates node;
                  r_reordered = R.n_reordered node;
                  r_bootstraps = R.n_bootstraps node;
                  r_reads = R.n_reads node;
                  r_lag = summary_opt (R.lag node);
                });
        })
      cluster
  in
  let storage =
    match (cfg.storage, live) with
    | Some _, _ :: _ ->
      let stores = live @ !abandoned in
      let counts =
        List.fold_left
          (fun c od -> Durable.add_counts od c)
          Durable.zero_counts stores
      in
      let sum_wal f =
        List.fold_left (fun a od -> a + f (Durable.wal od)) 0 stores
      in
      let sget f = match scrub_stats with Some s -> f s | None -> 0 in
      let salvage_s =
        1e-6
        *. Strip_sim.Cost_model.charge cfg.cost
             [
               ("scrub_pass", Meter.get "scrub_pass");
               ("scrub_byte", Meter.get "scrub_byte");
               ("salvage_attempt", Meter.get "salvage_attempt");
               ("salvage_byte", Meter.get "salvage_byte");
               ("quarantine_byte", Meter.get "quarantine_byte");
             ]
      in
      Some
        {
          injected_bitrot_wal = counts.Durable.injected_bitrot_wal;
          injected_bitrot_cp = counts.Durable.injected_bitrot_cp;
          injected_fsync_lie = counts.Durable.injected_fsync_lie;
          faults_detected = counts.Durable.detected;
          faults_repaired = counts.Durable.repaired;
          faults_quarantined = counts.Durable.quarantined;
          faults_expunged = counts.Durable.expunged;
          faults_outstanding = counts.Durable.outstanding;
          scrub_passes = sget Scrub.passes;
          scrub_bytes = sget Scrub.bytes_scanned;
          wal_corruptions = sget Scrub.wal_corruptions;
          cp_corruptions = sget Scrub.cp_corruptions;
          repaired_replica = sget Scrub.repaired_replica;
          repaired_checkpoint = sget Scrub.repaired_checkpoint;
          scrub_salvaged_bytes = sget Scrub.salvaged_bytes;
          scrub_expunged_bytes = sget Scrub.expunged_bytes;
          cp_fallbacks = r.totals.t_cp_fallbacks;
          salvaged_ranges = r.totals.t_salvaged_ranges;
          salvaged_bytes = r.totals.t_salvaged_bytes;
          quarantined_bytes = r.totals.t_quarantined_bytes;
          orphan_merges = r.totals.t_orphan_merges;
          disk_fulls = sum_wal Wal.n_disk_fulls;
          lied_bytes = sum_wal Wal.lied_bytes;
          ship_verify_skips =
            (match cluster with
            | Some c -> Strip_repl.Cluster.ship_verify_skips c
            | None -> 0);
          salvage_s;
          final_clean =
            List.for_all
              (fun d -> Wal.verify (Durable.wal d) = [] && Durable.slots_valid d)
              live;
        }
    | _ -> None
  in
  let shard =
    Option.map
      (fun coord ->
        {
          n_shards = n;
          sh_rows =
            List.init n (fun i ->
                let a = r.tallies.(i) and dq = Coordinator.queue coord i in
                {
                  sh_id = i;
                  sh_updates = a.a_updates;
                  sh_recomputes = a.a_recompute;
                  sh_firings = a.a_firings;
                  sh_partials_out =
                    Rule_manager.partial_seq (Strip_db.rules finals.(i));
                  sh_offered = Strip_shard.Dqueue.n_offered dq;
                  sh_duplicates = Strip_shard.Dqueue.n_duplicates dq;
                  sh_merged = Strip_shard.Dqueue.n_merged dq;
                  sh_applied = Strip_shard.Dqueue.n_applied dq;
                  sh_crashes = Coordinator.crashes coord i;
                  sh_final_lsn =
                    (match Strip_db.durable finals.(i) with
                    | Some d -> Wal.durable_end (Durable.wal d)
                    | None -> 0);
                });
          sh_msgs = Coordinator.msgs_sent coord;
          sh_bytes = Coordinator.bytes_shipped coord;
          sh_partials = Coordinator.partials_shipped coord;
          sh_acks = Coordinator.acks_sent coord;
          sh_reships = Coordinator.reships coord;
          sh_recovery_s = r.totals.t_recovery_s;
          cross_checks;
          cross_divergences;
        })
      coord
  in
  {
    label = label_of cfg.rule;
    delay = cfg.delay;
    duration_s;
    servers = cfg.servers;
    makespan_s;
    recompute_throughput_per_s =
      (if makespan_s <= 0.0 then 0.0
       else float_of_int n_recompute /. makespan_s);
    per_server_utilization =
      Array.to_list stats
      |> List.concat_map (fun st ->
             Strip_sim.Stats.per_server_utilization st
               ~duration_s:(Float.max duration_s makespan_s));
    n_lock_waits = sum (fun a -> a.a_lock_waits);
    n_lock_timeouts = sum (fun a -> a.a_lock_timeouts);
    lock_wait_s = summary_opt (merged (fun a -> a.a_lock_h));
    utilization =
      Array.fold_left
        (fun t st -> t +. Strip_sim.Stats.utilization st ~duration_s)
        0.0 stats
      /. float_of_int n;
    n_updates = sum (fun a -> a.a_updates);
    n_recompute;
    mean_recompute_us = Strip_sim.Stats.mean_service_us busiest Task.Recompute;
    p50_recompute_us =
      Strip_sim.Stats.service_percentile_us busiest Task.Recompute 50.0;
    p90_recompute_us =
      Strip_sim.Stats.service_percentile_us busiest Task.Recompute 90.0;
    p99_recompute_us =
      Strip_sim.Stats.service_percentile_us busiest Task.Recompute 99.0;
    max_recompute_us = Strip_sim.Stats.max_service_us busiest Task.Recompute;
    busy_update_s = sumf (fun a -> a.a_busy_update_us) *. 1e-6;
    busy_recompute_s = sumf (fun a -> a.a_busy_recompute_us) *. 1e-6;
    n_firings = sum (fun a -> a.a_firings);
    n_merges = sum (fun a -> a.a_merges);
    context_switches = sum (fun a -> a.a_ctxsw);
    expected_fanout = r.expected_fanout;
    verified;
    max_abs_error;
    n_injected = sum (fun a -> a.a_injected);
    n_aborts = sum (fun a -> a.a_aborts);
    n_retries = sum (fun a -> a.a_retries);
    n_sheds = sum (fun a -> a.a_sheds);
    n_dead_letters = sum (fun a -> a.a_dead);
    mean_recovery_s = Strip_obs.Histogram.mean (merged (fun a -> a.a_retry_h));
    staleness;
    registry;
    recovery;
    repl;
    storage;
    shard;
    slo = (match cfg.slo with None -> [] | Some s -> Strip_obs.Slo.report s);
    trace_spans =
      (match cfg.trace with
      | None -> []
      | Some tr ->
        ("primary", Strip_obs.Trace.length tr, Strip_obs.Trace.dropped tr)
        :: List.map
             (fun (name, t) ->
               (name, Strip_obs.Trace.length t, Strip_obs.Trace.dropped t))
             replica_traces);
    cluster_traces =
      (match cfg.trace with
      | Some tr when replica_traces <> [] -> ("primary", tr) :: replica_traces
      | _ -> []);
  }
