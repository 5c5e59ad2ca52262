(* One measured pass of a trial, run in a fresh process.

   - [setup]: the public setup calls [Experiment.run] and
     [Shard_exp.run] make before their [Meter.reset] (database,
     population, rule install, feed, replay), timed as a whole and per
     step.
   - [run]: [Shard_exp.dispatch] with verification on, what
     [strip-cli experiment --verify] runs, timed with its allocation
     counters, followed by the run's correctness checks.

   Steady state is the run pass minus the setup pass: both start from
   the same fresh-process state and perform the same setup calls, so the
   difference is the drive loop, the end-of-run audit and verification,
   and the replicas' final sync. *)

open Strip_relational
open Strip_core
open Strip_market
open Strip_pta
module E = Experiment
module J = Strip_obs.Json

type prepared =
  | Single of {
      db : Strip_db.t;
      h : Pta_tables.handles;
      quotes : Feed.quote array;
    }
  | Shards of {
      dbs : Strip_db.t array;
      hs : Pta_tables.handles array;
      quotes : Feed.quote array;
    }

let quotes_of = function Single s -> s.quotes | Shards s -> s.quotes

let target (h : Pta_tables.handles) =
  { Strip_ingest.Import.stocks = h.Pta_tables.stocks; by_symbol = h.Pta_tables.stocks_by_symbol }

let install (cfg : E.config) db h =
  match cfg.E.rule with
  | E.Comp_view v -> Comp_rules.install db h v ~delay:cfg.E.delay
  | E.Option_view v -> Option_rules.install db h v ~delay:cfg.E.delay

let expected_fanout (cfg : E.config) h =
  let weights = Feed.activity_weights cfg.E.feed in
  match cfg.E.rule with
  | E.Comp_view _ -> Pta_tables.expected_comps_per_update h ~weights
  | E.Option_view _ -> Pta_tables.expected_options_per_update h ~weights

let retain (cfg : E.config) =
  match cfg.E.storage with Some s -> max 1 s.E.retain | None -> 1

(* The durable store [Experiment.run] creates: recovery, replicas and
   chaos schedules all imply one. *)
let needs_durable (cfg : E.config) =
  cfg.E.recovery <> None
  || cfg.E.chaos <> []
  || match cfg.E.repl with Some r -> r.E.replicas > 0 | None -> false

let shards (cfg : E.config) =
  match cfg.E.shard with Some s when s.E.shards > 1 -> s.E.shards | _ -> 1

let setup (cfg : E.config) =
  let sp = Spans.with_span in
  let n = shards cfg in
  if n = 1 then begin
    let db =
      sp "setup.mk_db" (fun () ->
          let durable =
            if needs_durable cfg then
              Some (Strip_txn.Durable.create ~retain:(retain cfg) ())
            else None
          in
          E.mk_db ?durable ?fault:cfg.E.fault cfg)
    in
    let h =
      sp "setup.populate" (fun () ->
          let h = Pta_tables.populate db ~feed:cfg.E.feed cfg.E.sizes in
          ignore (expected_fanout cfg h);
          h)
    in
    sp "setup.install" (fun () -> install cfg db h);
    let quotes = sp "setup.feed" (fun () -> Feed.generate cfg.E.feed) in
    sp "setup.replay" (fun () -> ignore (Strip_ingest.Import.replay db (target h) quotes));
    Single { db; h; quotes }
  end
  else begin
    Strip_txn.Task.reset_ids ();
    let part = Strip_shard.Partitioner.create ~shards:n in
    let owner_sym = Strip_shard.Partitioner.shard_of_symbol part in
    let owner_comp = Strip_shard.Partitioner.shard_of_comp part in
    let dbs =
      sp "setup.mk_db" (fun () ->
          Array.init n (fun _ ->
              let durable = Strip_txn.Durable.create ~retain:(retain cfg) () in
              E.mk_db ~durable ?fault:cfg.E.fault cfg))
    in
    let hs =
      sp "setup.populate" (fun () ->
          let hs =
            Pta_tables.populate_sharded dbs ~owner_sym ~owner_comp ~feed:cfg.E.feed
              cfg.E.sizes
          in
          Array.iter (fun h -> ignore (expected_fanout cfg h)) hs;
          hs)
    in
    sp "setup.install" (fun () ->
        Array.iteri
          (fun sid db ->
            match cfg.E.rule with
            | E.Comp_view v ->
              Comp_rules.install_routed db hs.(sid) ~sid ~owner:owner_comp v
                ~delay:cfg.E.delay
            | E.Option_view _ -> install cfg db hs.(sid))
          dbs);
    let quotes = sp "setup.feed" (fun () -> Feed.generate cfg.E.feed) in
    sp "setup.replay" (fun () ->
        Array.iteri
          (fun sid db ->
            let mine =
              Array.of_seq
                (Seq.filter
                   (fun (q : Feed.quote) -> owner_sym (Taq.symbol q.Feed.stock) = sid)
                   (Array.to_seq quotes))
            in
            ignore (Strip_ingest.Import.replay db (target hs.(sid)) mine))
          dbs);
    Shards { dbs; hs; quotes }
  end

(* Wall time and allocation of [f ()], from the runtime's own counters. *)
type cost = { wall_s : float; minor_words : float; promoted_words : float; top_heap_words : int }

let measure f =
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t1 = Unix.gettimeofday () in
  let s1 = Gc.quick_stat () in
  ( v,
    {
      wall_s = t1 -. t0;
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      top_heap_words = s1.Gc.top_heap_words;
    } )

let cost_json c =
  [
    ("wall_s", J.Float c.wall_s);
    ("minor_words", J.Float c.minor_words);
    ("promoted_words", J.Float c.promoted_words);
    ("top_heap_words", J.Int c.top_heap_words);
  ]

let setup_pass cfg =
  let p, c = measure (fun () -> setup cfg) in
  J.Obj
    (cost_json c
    @ [
        ("quotes", J.Int (Array.length (quotes_of p)));
        ( "steps",
          J.Obj
            (List.map
               (fun (name, s) -> (name, J.Float s))
               (Spans.self_times ())) );
      ])

(* Every counter a per-layer metric is derived from: the [Meter] totals
   of the run (reset by [Experiment.run] after setup) and the metrics record's
   own counts.  These repeat exactly for a fixed seed. *)
let meter_counts () =
  List.sort compare (Meter.fold (fun name v acc -> if v = 0 then acc else (name, v) :: acc) [])

let counts (m : E.metrics) =
  let opt f = function Some x -> f x | None -> [] in
  meter_counts ()
  @ [
      ("n_updates", m.E.n_updates);
      ("n_recompute", m.E.n_recompute);
      ("n_firings", m.E.n_firings);
      ("n_merges", m.E.n_merges);
      ("context_switches", m.E.context_switches);
      ("n_retries", m.E.n_retries);
      ("n_dead_letters", m.E.n_dead_letters);
      ("n_sheds", m.E.n_sheds);
      ("n_lock_waits", m.E.n_lock_waits);
    ]
  @ opt
      (fun (r : E.recovery_metrics) ->
        [
          ("wal_bytes", r.E.wal_appended_bytes);
          ("redo_ops", r.E.redo_ops);
          ("audit_divergences", r.E.audit_divergences);
        ])
      m.E.recovery
  @ opt
      (fun (r : E.repl_metrics) ->
        [
          ("bytes_shipped", r.E.bytes_shipped);
          ("segments_sent", r.E.segments_sent);
          ("segments_dropped", r.E.segments_dropped);
          ("n_reads", r.E.n_reads);
        ])
      m.E.repl
  @ opt (fun (s : E.storage_metrics) -> [ ("scrub_bytes", s.E.scrub_bytes) ]) m.E.storage
  @ opt
      (fun (s : E.shard_metrics) ->
        let sum f = List.fold_left (fun t r -> t + f r) 0 s.E.sh_rows in
        [
          ("shard_msgs", s.E.sh_msgs);
          ("shard_bytes", s.E.sh_bytes);
          ("shard_partials", s.E.sh_partials);
          ("shard_reships", s.E.sh_reships);
          ("dqueue_offered", sum (fun r -> r.E.sh_offered));
          ("dqueue_merged", sum (fun r -> r.E.sh_merged));
          ("dqueue_duplicates", sum (fun r -> r.E.sh_duplicates));
        ])
      m.E.shard

(* The correctness conditions a verified run must meet, as the names of
   those it fails. *)
let failed_checks (m : E.metrics) =
  List.filter_map
    (fun (name, ok) -> if ok then None else Some name)
    [
      ("view_equals_recomputation", m.E.verified = Some true);
      ( "recovery_audit_clean",
        match m.E.recovery with Some r -> r.E.audit_clean | None -> true );
      ( "storage_final_clean",
        match m.E.storage with Some s -> s.E.final_clean | None -> true );
      ( "cross_shard_clean",
        match m.E.shard with Some s -> s.E.cross_divergences = 0 | None -> true );
      ( "replicas_converged",
        match m.E.repl with
        | Some r ->
          List.for_all (fun x -> x.E.r_applied_lsn = r.E.final_lsn) r.E.per_replica
        | None -> true );
      ("no_dead_letters_or_sheds", m.E.n_dead_letters + m.E.n_sheds = 0);
    ]

(* Operations attempted and failed, for the failure share: dead letters,
   sheds and divergent audit keys (the sharded audit already counts its
   cross-shard divergences) over updates plus recomputes. *)
let ops (m : E.metrics) =
  let divergent =
    match m.E.recovery with Some r -> r.E.audit_divergences | None -> 0
  in
  (m.E.n_updates + m.E.n_recompute, m.E.n_dead_letters + m.E.n_sheds + divergent)

let sim_digest m = Digest.to_hex (Digest.string (J.to_string (Report.metrics_json m)))

let outcome_json (m : E.metrics) =
  let attempted, failed = ops m in
  [
    ("sim_digest", J.Str (sim_digest m));
    ("attempted", J.Int attempted);
    ("failed", J.Int failed);
    ("failed_checks", J.List (List.map (fun s -> J.Str s) (failed_checks m)));
    ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (counts m)));
  ]

let run_pass (cfg : E.config) =
  let m, c = measure (fun () -> Shard_exp.dispatch { cfg with E.verify = true }) in
  J.Obj (cost_json c @ outcome_json m)
