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
}

let default_recovery = { checkpoint_every = Some 5.0; crash_at = None }

(* The run's crash and partition budget: past it, fresh instances get
   zeroed crash/partition rates so a hostile seed cannot prevent
   convergence (scheduled events fire once by construction). *)
let max_crashes = 8

type repl_cfg = {
  replicas : int;
  read_policy : Strip_repl.Cluster.read_policy;
  read_rate : float;
  read_cost_s : float;
  link : Strip_repl.Link.config;
}

let default_repl =
  {
    replicas = 1;
    read_policy = Strip_repl.Cluster.Any;
    read_rate = 0.0;
    read_cost_s = 0.0;
    link = Strip_repl.Link.default_config;
  }

(* A partition longer than this is detected and elected over; a shorter
   one is a blip. *)
let partition_detect_s = 0.1

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
  shard_crash_at : (int * float) option;  (* (shard id, simulated time) *)
}

let default_shard ~shards =
  { shards; shard_link = Strip_repl.Link.default_config; shard_crash_at = None }

(* The coordinator's tick, in simulated seconds. *)
let shard_tick_s = 0.05

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
}

type replica_metrics = { r_id : int; r_applied_lsn : int }

type repl_metrics = {
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
  segments_sent : int;
  segments_dropped : int;
  bytes_shipped : int;
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
  faults_late : int;
  scrub_bytes : int;
  repaired_replica : int;
  repaired_checkpoint : int;
  scrub_salvaged_bytes : int;
  scrub_expunged_bytes : int;
  disk_fulls : int;
  lied_bytes : int;
  ship_verify_skips : int;
  salvage_s : float;  (* modeled seconds spent on detection + repair *)
  final_clean : bool;
      (* end of run: WAL frame chain verifies and every retained
         checkpoint slot passes its CRC *)
}

(* One shard primary's partial-delta queue. *)
type shard_row = {
  sh_offered : int;  (* arrivals offered to this shard's queue *)
  sh_duplicates : int;  (* resends the (src, seq) dedup collapsed *)
  sh_merged : int;  (* arrivals folded into a pending entry *)
}

type shard_metrics = {
  n_shards : int;
  sh_rows : shard_row list;
  sh_msgs : int;  (* shard-to-shard messages sent (partials + acks) *)
  sh_bytes : int;
  sh_partials : int;  (* first ships *)
  sh_acks : int;
  sh_reships : int;  (* resends past the ack deadline *)
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
  n_aborts : int;
  n_retries : int;
  n_sheds : int;
  n_dead_letters : int;
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

let mk_db ?now ?durable ?fault ?stats (cfg : config) =
  (* Storage-fault runs arm every durable store a primary incarnation
     uses — including a promoted replica's copy — before the instance
     registers its metrics, so the media probes exist on every registry
     and ship-time verification covers every term. *)
  (match (cfg.storage, durable) with
  | Some _, Some d -> Strip_txn.Durable.arm_media d
  | _ -> ());
  (* The trace buffer, SLO monitor and provenance store are caller-owned
     and shared across every instance a crashy run burns through, so one
     causal story spans restarts and failovers; so is [stats], which a
     later incarnation takes over from its predecessor. *)
  Strip_db.create ~cost:cfg.cost ?now ?durable ?fault ?retry:cfg.retry
    ?overload:cfg.overload ~servers:cfg.servers
    ~lock_timeout_s:cfg.lock_timeout_s ?trace:cfg.trace ?slo:cfg.slo
    ?provenance:cfg.provenance ?stats ()

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

(* The body of a scheduled crash task: it raises out of the engine's
   run when the clock reaches the task's release time. *)
let crash () = raise (Strip_txn.Fault.Crashed { at = "scheduled" })

(* (Re-)arm the chaos events still strictly in the future on the live
   instance — called at the start of the drive and after every crash or
   failover, so a schedule keeps firing across instance boundaries
   (events inside an outage window are consumed by it).  Storage faults
   raise nothing when injected: the damage is silent by design and must
   be found by the scrubber, ship-time verification or recovery.  A
   chaos run always has a durability layer ({!resolve}). *)
let arm_chaos cfg db ~now =
  let open Strip_txn in
  let d = Option.get (Strip_db.durable db) in
  let note site =
    Option.iter (fun fi -> Fault.note fi site) (Strip_db.fault_injector db)
  in
  let arm label at f = if at > now then Strip_db.at db ~label ~at f in
  List.iter
    (function
      | Crash_at at -> arm "crash" at crash
      | Partition_at { at; heal_after_s } ->
        arm "partition" at (fun () ->
            raise (Fault.Partitioned { at = "scheduled"; heal_after_s }))
      | Checkpoint_at at ->
        arm "checkpoint" at (fun () -> Strip_db.checkpoint db)
      | Bitrot_at { at; target; frac } ->
        arm "bitrot" at (fun () ->
            if Durable.rot d ~target ~frac then note Fault.Bitrot)
      | Fsync_lie_at at ->
        arm "fsync_lie" at (fun () ->
            Durable.arm_fsync_lie d ~notify:(fun () -> note Fault.Fsync_lie))
      | Disk_full_at { at; free_bytes; heal_after_s } ->
        (* The capacity clamp lives on the WAL, which survives restarts:
           a post-crash instance re-arms the heal if it is still in the
           future.  A heal that fell due during the outage was discarded
           with the crashed engine and is not re-armed, so the clamp
           then stays for the rest of the run (open on ROADMAP). *)
        arm "disk_full" at (fun () ->
            Wal.clamp (Durable.wal d) (Some free_bytes);
            note Fault.Disk_full);
        arm "disk_heal" (at +. heal_after_s) (fun () ->
            Wal.clamp (Durable.wal d) None)
      | Drop_burst _ -> ())
    cfg.chaos

(* One run's primaries and what their drive loop shares.  An unsharded
   run has one primary; a sharded run has one per shard, each with its
   own durable store, tables and slice of the feed.  Every count lives in
   the primaries' {!Strip_sim.Stats}, which each incarnation takes over
   from its predecessor, or in a subsystem the metrics registry probes. *)
type run = {
  cfg : config;
  part : Partitioner.t option;  (* [Some _] iff sharded *)
  durables : Strip_txn.Durable.t option array;
  handles : Pta_tables.handles array;  (* re-pointed at every recovery *)
  quotes : Feed.quote array array;
      (* each primary's slice of the feed, kept to resubmit its tail
         after a crash (empty without recovery) *)
  expected_fanout : float;  (* E[derived rows touched per update] *)
  mutable promotions : (int * int * int) list;
      (* (epoch, promoted id, promoted lsn), newest first *)
  mutable down_s : float;  (* recovery downtime, summed *)
}

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
      promotions = [];
      down_s = 0.0;
      expected_fanout;
    }
  in
  Array.iteri
    (fun sid db ->
      ignore (Strip_ingest.Import.replay db (target r sid) quotes.(sid)))
    dbs;
  (r, dbs)

(* Past the feed, a sharded run ticks until the partial-delta protocol
   is quiescent; this many extra ticks without it is a protocol that
   cannot converge (a link that drops everything), not a slow one. *)
let max_quiesce_ticks = 10_000

let not_quiescent c n =
  let stuck =
    List.filter (fun (_, k) -> k > 0)
      (List.init n (fun i -> (i, Coordinator.unacked c i)))
  in
  failwith
    (Printf.sprintf
       "Experiment.run: shards not quiescent %d ticks past the feed: %d \
        partial(s) unacked, on shard(s) %s"
       max_quiesce_ticks
       (List.fold_left (fun t (_, k) -> t + k) 0 stuck)
       (String.concat ", " (List.map (fun (i, _) -> string_of_int i) stuck)))

(* The one drive loop.  It advances every primary (one unsharded, one
   per shard) from horizon to horizon, where a horizon is the next read
   of the pump, the next coordinator tick or the end of the run, and
   does that horizon's work there.  A horizon has no side effect on an
   engine ({!Strip_sim.Engine.run}), so where the run is cut never
   changes what it simulates.  Every {!Strip_txn.Fault.Crashed} or
   [Partitioned] escape goes to one handler, which fails over when the
   cluster has replicas and otherwise restarts in place; either way
   {!Recovery.until_up} charges the modeled recovery latency as downtime
   before the rest of the feed resumes on the new instance, which
   [arm sid] wires and re-arms.  [dbs] holds each primary's live
   incarnation; every new incarnation takes over its predecessor's
   stats. *)
let drive r ~cluster ~coord ~arm ~abandon dbs =
  let open Strip_txn in
  let module C = Strip_repl.Cluster in
  let cfg = r.cfg in
  let until = cfg.feed.Feed.duration in
  let replicated =
    match cluster with Some c when C.n_replicas c > 0 -> Some c | _ -> None
  in
  (* The budget spent: every crash of every primary, counted in its
     run-long stats, and every partition the cluster opened. *)
  let budget_fault () =
    let open Strip_txn.Fault in
    let spent =
      Array.fold_left
        (fun n db -> n + Strip_sim.Stats.n_crashes (Strip_db.stats db))
        (Option.fold ~none:0 ~some:C.n_partitions cluster)
        dbs
    in
    match (cfg.recovery, cfg.fault) with
    | Some _, Some c when spent >= max_crashes ->
      Some { c with rates = { c.rates with crash = 0.0; partition = 0.0 } }
    | _, fault -> fault
  in
  let note_promotion (p : C.promotion) =
    r.promotions <- (p.C.epoch, p.promoted, p.promoted_lsn) :: r.promotions
  in
  (* Back in service: book the downtime, point the cluster at the new
     instance — re-seeding a failed-over cluster from the new primary's
     fresh checkpoint (after the downtime accounting — resynchronization
     proceeds in parallel with resumed service) — let [retire_old]
     dispose of the old primary, rebuild a [restarted] shard's protocol
     state from its log, then resume the feed past [cut] on the new
     instance. *)
  let resume sid ?(failover = false) ?(retire_old = ignore) ?restarted ~cut
      (ndb, down_s) =
    r.down_s <- r.down_s +. down_s;
    Option.iter
      (fun c ->
        let now = Strip_db.now ndb in
        if failover then C.resume c ~now ~ship_until:until
        else C.restarted c ~now ndb)
      cluster;
    retire_old ();
    Option.iter (fun (c, log) -> Coordinator.on_restart c sid ~log ndb) restarted;
    requote r sid ndb ~after:cut;
    arm sid ndb;
    dbs.(sid) <- ndb
  in
  let crashed sid =
    let db = dbs.(sid) in
    let t_crash = Strip_db.now db and stats = Strip_db.stats db in
    Strip_db.crash db;
    match replicated with
    | Some c ->
      (* Failover: promotion recovers from the elected replica's durable
         copy (bootstrap image + shipped tail), and the dead primary's
         store leaves service. *)
      abandon db;
      resume sid ~failover:true ~cut:t_crash
        (Recovery.until_up ~cost:cfg.cost ~stats (fun () ->
             let fault = budget_fault () in
             let ndb, rs, p =
               C.promote c ~now:t_crash
                 ~mk_db:(fun durable ->
                   mk_db ~now:t_crash ~durable ?fault ~stats cfg)
                 ~reinstall:(reinstall r sid)
             in
             note_promotion p;
             (ndb, rs)))
    | None ->
      (* Restart in place.  A shard's protocol state lives in the log
         that recovery's checkpoint truncates, so it is scanned first. *)
      let restarted = Option.map (fun c -> (c, Coordinator.scan_db db)) coord in
      resume sid ?restarted ~cut:t_crash
        (Recovery.restart ~cost:cfg.cost ~stats
           ~fresh:(fun () ->
             mk_db ~now:t_crash ?durable:r.durables.(sid)
               ?fault:(budget_fault ()) ~stats cfg)
           ~reinstall:(reinstall r sid) ())
  in
  (* A partition longer than the detection timeout fails over too, while
     the deposed primary rides out its split brain. *)
  let partitioned sid ~heal_after_s =
    let old_db = dbs.(sid) in
    let t_part = Strip_db.now old_db and stats = Strip_db.stats old_db in
    match replicated with
    | Some c when heal_after_s > partition_detect_s ->
      let heal_at = t_part +. heal_after_s in
      let detect_at = t_part +. partition_detect_s in
      C.begin_partition c ~now:t_part ~heal_at;
      (* The isolated primary is alive, not dead: it keeps committing
         and its surviving shipping chain keeps sending in the old term,
         but every send dies on the epoch-tagged partition windows.  A
         nested crash fells it for good; a nested partition of an
         already-cut node changes nothing. *)
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
      let up =
        Recovery.until_up ~cost:cfg.cost ~stats ~crashed:false (fun () ->
            let fault = budget_fault () in
            let ndb, rs, p =
              C.promote_isolated c ~now:detect_at
                ~mk_db:(fun durable ->
                  mk_db ~now:detect_at ~durable ?fault ~stats cfg)
                ~reinstall:(reinstall r sid)
            in
            note_promotion p;
            (ndb, rs))
      in
      (* Split brain, contained: the new term opens at once while the old
         primary runs to the heal point, accumulating a divergent tail
         nobody will ever see; then it is fenced — it discards that tail
         and stands by to rejoin as a replica at the next re-seed.
         Quotes after the cut belong to the new timeline. *)
      resume sid ~failover:true
        ~retire_old:(fun () ->
          if !old_alive then run_doomed heal_at;
          Strip_db.crash old_db;
          ignore (C.heal c ~now:heal_at);
          abandon old_db)
        ~cut:t_part up
    | Some c when heal_after_s > 0.0 ->
      (* A blip shorter than the detection timeout: the node keeps
         running (volatile state is intact — only the raising task was
         discarded), but its sends drop for the window; the shipper
         re-covers the gap on later ticks. *)
      C.begin_partition c ~now:t_part ~heal_at:(t_part +. heal_after_s)
    | _ -> ()
  in
  let rec advance sid ~until =
    match Strip_db.run ~until dbs.(sid) with
    | () -> ()
    | exception Fault.Crashed _ when cfg.recovery <> None ->
      crashed sid;
      advance sid ~until
    | exception Fault.Partitioned { heal_after_s; _ } when cfg.recovery <> None
      ->
      partitioned sid ~heal_after_s;
      advance sid ~until
  in
  (* The horizons, each with its work, in order.  A sharded run ticks
     the coordinator up to the end of the feed, once at its end, then
     until the protocol is quiescent; an unsharded one stops at each
     read of the pump, then drains. *)
  let horizons =
    match (coord, cfg.shard) with
    | Some c, Some _ ->
      let step now = (now, fun () -> Coordinator.step c ~now) in
      let rec quiesce now k () =
        if Coordinator.quiescent c then Seq.Nil
        else if k = max_quiesce_ticks then not_quiescent c (Array.length dbs)
        else Seq.Cons (step now, quiesce (now +. shard_tick_s) (k + 1))
      in
      Seq.append
        (Seq.init
           (int_of_float (ceil (until /. shard_tick_s)))
           (fun i -> step (float_of_int (i + 1) *. shard_tick_s)))
        (Seq.cons (step until) (quiesce (until +. shard_tick_s) 0))
    | _ ->
      let rec reads () =
        match Option.map (fun c -> (c, C.next_read_time c)) cluster with
        | Some (c, Some tr) ->
          Seq.Cons ((tr, fun () -> C.serve_read c ~now:tr), reads)
        | _ -> Seq.Cons ((infinity, ignore), Seq.empty)
      in
      reads
  in
  Seq.iter
    (fun (h, act) ->
      Array.iteri (fun sid _ -> advance sid ~until:h) dbs;
      act ())
    horizons

(* Consistency audit over every primary: the recovered queues have
   drained, so each view must equal its recomputation; divergences
   become repair transactions (which the auditor counts in the primary's
   stats) and the audit reruns.  Returns (all clean, divergences left).
   Only the view this run maintains is audited — the other has no
   installed rule, so it is stale by design — and only where it is
   locally complete: a sharded [comp_prices] is a plain partition (its
   members live everywhere), so composites are judged by the cross-shard
   check instead. *)
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
    (fun ((clean, divergences) as acc) db ->
      if views = [] then acc
      else begin
        let first = Auditor.audit ~eps ~views db in
        let final =
          if Auditor.clean first then first
          else begin
            ignore (Auditor.enqueue_repairs db first);
            Strip_db.run db;
            Auditor.audit ~eps ~views db
          end
        in
        ( clean && Auditor.clean final,
          divergences + List.length final.Auditor.divergences )
      end)
    (true, 0) dbs

let summary_opt h =
  if Strip_obs.Histogram.count h = 0 then None
  else Some (Strip_obs.Histogram.summary h)

let run (cfg : config) =
  let cfg = resolve cfg in
  let r, dbs = setup cfg in
  Meter.reset ();
  Array.iter (fun db -> Rule_manager.reset_stats (Strip_db.rules db)) dbs;
  (* A storage run has one scrubber per primary; its background passes
     run on an unsharded primary only. *)
  let scrubbers =
    Option.map (fun _ -> Array.map (fun _ -> Scrub.create ()) dbs) cfg.storage
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
  (* Every incarnation of a primary starts with a fresh metrics registry,
     into which [wire] registers the run-owned counters: the cluster's
     and the primary's scrubber's (a shard's protocol counts are the
     coordinator's to register). *)
  let wire cluster sid db =
    let reg = Strip_db.metrics db in
    Option.iter (fun c -> Strip_repl.Cluster.register_metrics c reg) cluster;
    Option.iter (fun sc -> Scrub.register_metrics sc.(sid) reg) scrubbers
  in
  let cluster, coord, arm =
    match cfg.shard with
    | Some s ->
      let apply ~sid txn ~key ~delta =
        match cfg.rule with
        | Comp_view _ -> Comp_rules.apply_partial r.handles.(sid) txn ~key ~delta
        | Option_view _ -> ()
      in
      let coord = Coordinator.create ~link:s.shard_link ~apply dbs in
      Coordinator.checkpoint_all coord;
      (match s.shard_crash_at with
      | Some (sid, at) when sid >= 0 && sid < Array.length dbs ->
        Strip_db.at dbs.(sid) ~label:"crash" ~at crash
      | Some (sid, _) ->
        invalid_arg
          (Printf.sprintf "Experiment.run: shard_crash_at shard %d out of range"
             sid)
      | None -> ());
      Array.iteri (wire None) dbs;
      (* Shard checkpoints are driven by the coordinator, not the engine. *)
      (None, Some coord, wire None)
    | None ->
      let db0 = dbs.(0) in
      if cfg.recovery <> None then Strip_db.checkpoint db0;
      (* The cluster bootstraps its replicas from the checkpoint just
         taken.  Shipping is bounded by the feed, like the checkpoint
         schedule: an unbounded one would keep the event queue non-empty
         forever and the engine would never drain.  The tail of the run
         past the last periodic checkpoint is covered by the WAL. *)
      let cluster = mk_cluster db0 in
      Option.iter
        (Strip_repl.Cluster.schedule_shipping ~until:cfg.feed.Feed.duration)
        cluster;
      (* Checkpoints, chaos events and the scrubber die with their
         engine, so every incarnation re-arms them; only the first gets
         the scheduled crash. *)
      let arm ?crash_at db =
        wire cluster 0 db;
        match cfg.recovery with
        | None -> ()
        | Some rcfg ->
          Option.iter
            (fun every ->
              Strip_db.schedule_checkpoints db ~every
                ~until:cfg.feed.Feed.duration ())
            rcfg.checkpoint_every;
          Option.iter
            (fun at -> Strip_db.at db ~label:"crash" ~at crash)
            crash_at;
          arm_chaos cfg db ~now:(Strip_db.now db);
          (match (cfg.storage, scrubbers) with
          | Some { scrub_every = Some every; _ }, Some sc ->
            let fetch = fetch_of cluster in
            Strip_db.every db ~label:"scrub" ~every
              ~until:cfg.feed.Feed.duration (fun () ->
                Scrub.scrub ?fetch sc.(0) db)
          | _ -> ())
      in
      arm ?crash_at:(Option.bind cfg.recovery (fun rc -> rc.crash_at)) db0;
      (cluster, None, fun _ db -> arm db)
  in
  drive r ~cluster ~coord ~arm ~abandon dbs;
  let db0 = dbs.(0) in
  (* One last whole scrub cycle before the administrative catch-up, so a
     fault injected after the final periodic tick is still detected and
     repaired before the run is judged (and before replicas converge on
     the final log). *)
  (match (cfg.storage, scrubbers, coord) with
  | Some { scrub_every = Some _; _ }, Some sc, None ->
    Scrub.scrub_cycle ?fetch:(fetch_of cluster) sc.(0) db0
  | _ -> ());
  (* Converge the replicas administratively so end-of-run lag/LSN metrics
     (and the tests) compare equals against the final primary. *)
  Option.iter
    (fun c -> Strip_repl.Cluster.final_sync c ~now:(Strip_db.now db0))
    cluster;
  (* Consistency audit (recovery runs only). *)
  let audit = Option.map (fun _ -> audit_and_repair cfg dbs) cfg.recovery in
  (* Close any violation window still open at end of run (audit repairs
     above were the last possible staleness samples). *)
  Option.iter Strip_obs.Slo.finish cfg.slo;
  let open Strip_txn in
  let n = Array.length dbs in
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
    | Some (clean, _) -> clean && cross_divergences = 0
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
  (* Each primary's stats cover every incarnation it burned through;
     every count below sums them over the primaries. *)
  let module S = Strip_sim.Stats in
  let stats = Array.to_list (Array.map Strip_db.stats dbs) in
  let sum f = List.fold_left (fun t st -> t + f st) 0 stats in
  let sumf f = List.fold_left (fun t st -> t +. f st) 0.0 stats in
  let merged f = Strip_obs.Histogram.merge (List.map f stats) in
  (* Makespan: the simulated instant the last dispatched task finished
     (each clock ends on its completion event).  Recompute throughput
     over the makespan is the quantity the server sweep improves: an
     overloaded single server drains its backlog long after the feed
     ends, and extra servers shrink that tail. *)
  let makespan_s =
    Array.fold_left (fun m db -> Float.max m (Strip_db.now db)) 0.0 dbs
  in
  let n_recompute = sum S.n_recompute in
  (* Service-time percentiles report the busiest primary's recompute
     distribution. *)
  let busiest =
    List.fold_left
      (fun best st -> if S.n_recompute st > S.n_recompute best then st else best)
      (List.hd stats) stats
  in
  let staleness =
    List.sort_uniq compare (List.concat_map S.staleness_tables stats)
    |> List.map (fun table ->
           let hs = List.filter_map (fun st -> S.staleness_of st table) stats in
           (table, Strip_obs.Histogram.summary (Strip_obs.Histogram.merge hs)))
  in
  let registry =
    match coord with
    | None -> Strip_obs.Metrics.snapshot (Strip_db.metrics db0)
    | Some _ ->
      (* One report, N registries: every shard's rows tagged with a
         [shard] label. *)
      Strip_obs.Metrics.tagged "shard"
        (Array.to_list dbs
        |> List.map (fun db -> Strip_obs.Metrics.snapshot (Strip_db.metrics db)))
  in
  (* After a failover a primary's live durable store is the promoted
     replica's copy, not the one the run started with. *)
  let live = Array.to_list dbs |> List.filter_map Strip_db.durable in
  let sum_live f = List.fold_left (fun t d -> t + f d) 0 live in
  let sum_live_wal f = sum_live (fun d -> f (Durable.wal d)) in
  let work kind = sum (fun st -> S.recovery_work st kind) in
  let recovery =
    Option.map
      (fun (_, divergences) ->
        {
          n_crashes = sum S.n_crashes;
          n_checkpoints = sum_live Durable.n_checkpoints;
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
          redo_commits = work S.Redo_commits;
          redo_ops = work S.Redo_ops;
          requeued = work S.Requeued;
          restored_rows = work S.Restored_rows;
          total_recovery_s = r.down_s;
          audit_clean;
          audit_divergences = divergences + cross_divergences;
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
          promotions = List.rev r.promotions;
          final_lsn =
            (match Strip_db.durable db0 with
            | Some d -> Wal.durable_end (Durable.wal d)
            | None -> 0);
          fenced_bytes = C.fenced_bytes_total c;
          n_partitions = C.n_partitions c;
          segments_sent = C.segments_sent c;
          segments_dropped = C.segments_dropped c;
          bytes_shipped = C.bytes_shipped c;
          per_replica =
            List.init (C.n_replicas c) (fun i ->
                let node = C.replica c i in
                { r_id = R.id node; r_applied_lsn = R.applied_lsn node });
        })
      cluster
  in
  let storage =
    match (cfg.storage, scrubbers, live) with
    | Some _, Some sc, _ :: _ ->
      let stores = live @ !abandoned in
      let counts =
        List.fold_left
          (fun c od -> Durable.add_counts od c)
          Durable.zero_counts stores
      in
      let sum_wal f =
        List.fold_left (fun a od -> a + f (Durable.wal od)) 0 stores
      in
      let scrubbed f = Array.fold_left (fun a st -> a + f st) 0 sc in
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
          faults_late = counts.Durable.late;
          scrub_bytes = scrubbed Scrub.bytes_scanned;
          repaired_replica = scrubbed Scrub.repaired_replica;
          repaired_checkpoint = scrubbed Scrub.repaired_checkpoint;
          scrub_salvaged_bytes = scrubbed Scrub.salvaged_bytes;
          scrub_expunged_bytes = scrubbed Scrub.expunged_bytes;
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
                let dq = Coordinator.queue coord i in
                {
                  sh_offered = Strip_shard.Dqueue.n_offered dq;
                  sh_duplicates = Strip_shard.Dqueue.n_duplicates dq;
                  sh_merged = Strip_shard.Dqueue.n_merged dq;
                });
          sh_msgs = Coordinator.msgs_sent coord;
          sh_bytes = Coordinator.bytes_shipped coord;
          sh_partials = Coordinator.partials_shipped coord;
          sh_acks = Coordinator.acks_sent coord;
          sh_reships = Coordinator.reships coord;
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
      List.concat_map
        (fun st ->
          S.per_server_utilization st
            ~duration_s:(Float.max duration_s makespan_s))
        stats;
    n_lock_waits = sum S.n_lock_waits;
    n_lock_timeouts = sum S.n_lock_timeouts;
    lock_wait_s = summary_opt (merged S.lock_wait_hist);
    utilization = sumf (fun st -> S.utilization st ~duration_s) /. float_of_int n;
    n_updates = sum (fun st -> S.tasks_run st Task.Update);
    n_recompute;
    mean_recompute_us = S.mean_service_us busiest Task.Recompute;
    p50_recompute_us =
      S.service_percentile_us busiest Task.Recompute 50.0;
    p90_recompute_us =
      S.service_percentile_us busiest Task.Recompute 90.0;
    p99_recompute_us =
      S.service_percentile_us busiest Task.Recompute 99.0;
    max_recompute_us = S.max_service_us busiest Task.Recompute;
    busy_update_s = sumf (fun st -> S.busy_us_of st Task.Update) *. 1e-6;
    busy_recompute_s = sumf (fun st -> S.busy_us_of st Task.Recompute) *. 1e-6;
    n_firings = sum S.n_firings;
    n_merges = sum S.n_merges;
    context_switches = sum S.context_switches;
    expected_fanout = r.expected_fanout;
    verified;
    max_abs_error;
    n_aborts = sum S.n_aborts;
    n_retries = sum S.n_retries;
    n_sheds = sum S.n_sheds;
    n_dead_letters = sum S.n_dead_letters;
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
