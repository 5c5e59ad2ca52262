(* The traced trial: setup and steady state under spans, then probes
   that time single layers through their public entry points on the
   workload's own data.  Every probe runs on every workload, so each
   per-layer timing exists everywhere; which workload is expected to
   move it is recorded in README.md. *)

open Strip_relational
open Strip_core
open Strip_market
open Strip_pta
module E = Experiment
module J = Strip_obs.Json

let sp = Spans.with_span

(* [ns_per name n f]: run [f] under span [name]; its time in ns per unit
   of the work count [f] returns ([None] when it did no work). *)
let ns_per name f =
  let t0 = Unix.gettimeofday () in
  let n = sp name f in
  let dt = Unix.gettimeofday () -. t0 in
  if n <= 0 then None else Some (dt *. 1e9 /. float_of_int n)

(* The counters [Trial.counts] reads from a metrics record, taken from a
   single-primary database the benchmark drove itself. *)
let db_counts db =
  let st = Strip_db.stats db and mgr = Strip_db.rules db in
  let module S = Strip_sim.Stats in
  [
    ("n_updates", S.tasks_run st Strip_txn.Task.Update);
    ("n_recompute", S.n_recompute st);
    ("n_firings", Rule_manager.n_rule_firings mgr);
    ("n_merges", Rule_manager.n_merges mgr);
    ("context_switches", S.context_switches st);
    ("n_retries", S.n_retries st);
    ("n_dead_letters", S.n_dead_letters st);
    ("n_sheds", S.n_sheds st);
    ("n_lock_waits", S.n_lock_waits st);
  ]

let view_of (cfg : E.config) =
  match cfg.E.rule with
  | E.Comp_view _ -> ("comp_prices", "comp")
  | E.Option_view _ -> ("option_prices", "option_symbol")

(* The base table a view recomputation scans, row by row. *)
let member_table (cfg : E.config) (h : Pta_tables.handles) =
  match cfg.E.rule with
  | E.Comp_view _ -> h.Pta_tables.comps_list
  | E.Option_view _ -> h.Pta_tables.options_list

(* Relational, finance and sim probes over prepared (and possibly
   steady-state) tables. *)
let table_probes (cfg : E.config) (p : Trial.prepared) =
  let hs, dbs =
    match p with
    | Trial.Single { db; h; _ } -> ([| h |], [| db |])
    | Trial.Shards { dbs; hs; _ } -> (hs, dbs)
  in
  let quotes = Trial.quotes_of p in
  let sum f = Array.fold_left (fun t h -> t + f h) 0 hs in
  let view_recompute =
    ns_per "probe.relational.view_recompute" (fun () ->
        ignore (Comp_rules.recompute_from_scratch_sharded hs);
        sum (fun h -> Table.cardinal h.Pta_tables.comps_list))
  in
  let bs =
    ns_per "probe.finance.black_scholes" (fun () ->
        Array.iter (fun h -> ignore (Option_rules.recompute_from_scratch h)) hs;
        sum (fun h -> Table.cardinal h.Pta_tables.options_list))
  in
  let owner = Strip_shard.Partitioner.(shard_of_symbol (create ~shards:(Array.length hs))) in
  let fan_index h =
    match cfg.E.rule with
    | E.Comp_view _ -> h.Pta_tables.comps_by_symbol
    | E.Option_view _ -> h.Pta_tables.options_by_stock
  in
  let symbols = Array.map (fun (q : Feed.quote) -> Taq.symbol q.Feed.stock) quotes in
  let lookup =
    ns_per "probe.relational.index_lookup" (fun () ->
        Array.iter
          (fun s -> ignore (Index.lookup (fan_index hs.(owner s)) [ Value.Str s ]))
          symbols;
        Array.length symbols)
  in
  let table, key_col = view_of cfg in
  let keys =
    Strip_db.query_rows dbs.(0) (Printf.sprintf "select %s from %s" key_col table)
    |> List.map (fun row -> Value.to_string row.(0))
    |> Array.of_list
  in
  (* Up to 2000 reads, stopping after 0.25 s: a read that scans a large
     view would otherwise dominate the traced trial. *)
  let point_read =
    ns_per "probe.relational.point_read" (fun () ->
        let stop = Unix.gettimeofday () +. 0.25 and n = ref 0 in
        while keys <> [||] && !n < 2000 && Unix.gettimeofday () < stop do
          ignore
            (Strip_db.query_rows dbs.(0)
               (Printf.sprintf "select price from %s where %s = '%s'" table key_col
                  keys.(!n mod Array.length keys)));
          incr n
        done;
        !n)
  in
  (* The engine's per-task accounting: snapshot, a task's worth of
     ticks, snapshot, charge. *)
  let cells = List.map Meter.counter [ "begin_task"; "index_probe"; "join_row"; "end_task" ] in
  let charge =
    ns_per "probe.sim.charge" (fun () ->
        let n = 20_000 in
        for _ = 1 to n do
          let before = Meter.snapshot () in
          List.iter Meter.tick_c cells;
          let after = Meter.snapshot () in
          ignore (Strip_sim.Cost_model.charge_span cfg.E.cost ~before ~after)
        done;
        n)
  in
  (* A distributed unique-queue offer stream from the workload's own
     composite fan-in: every quote offers one delta per composite its
     stock belongs to, from the stock's owner among 4 sources; every
     20th offer is resent, and pending entries are applied (removed)
     once per simulated second, the unique delay. *)
  let part4 = Strip_shard.Partitioner.create ~shards:4 in
  let stream =
    let seq = Array.make 4 0 and acc = ref [] and n = ref 0 in
    Array.iter
      (fun (q : Feed.quote) ->
        let s = Taq.symbol q.Feed.stock in
        let src = Strip_shard.Partitioner.shard_of_symbol part4 s in
        List.iter
          (fun r ->
            if !n < 200_000 then begin
              seq.(src) <- seq.(src) + 1;
              incr n;
              let offer = (src, seq.(src), [ Record.value r 0 ], q.Feed.price, q.Feed.time) in
              acc := offer :: !acc;
              if !n mod 20 = 0 then acc := offer :: !acc
            end)
          (Index.lookup hs.(owner s).Pta_tables.comps_by_symbol [ Value.Str s ]))
      quotes;
    List.rev !acc
  in
  let dq = Strip_shard.Dqueue.create () in
  let offer =
    ns_per "probe.shard.dqueue_offer" (fun () ->
        let next_apply = ref 1.0 in
        List.iter
          (fun (src, seq, key, delta, created_at) ->
            if created_at >= !next_apply then begin
              List.iter
                (fun key -> Strip_shard.Dqueue.remove dq ~key)
                (Strip_shard.Dqueue.pending_keys dq);
              next_apply := created_at +. 1.0
            end;
            ignore (Strip_shard.Dqueue.offer dq ~src ~seq ~key ~delta ~created_at))
          stream;
        List.length stream)
  in
  [
    ("relational.view_recompute_ns_per_row", view_recompute);
    ("finance.bs_ns_per_option", bs);
    ("relational.index_lookup_ns", lookup);
    ("relational.point_read_ns", point_read);
    ("sim.charge_ns_per_task", charge);
    ("shard.dqueue_offer_ns", offer);
  ]

(* A crash-free durable run of the workload's rule and feed on one
   primary, then probes over its store: WAL decode/encode/verify,
   checkpoint capture/encode/decode, replica bootstrap + ingest, audit
   and restart recovery. *)
let durable_probes (cfg : E.config) =
  let cfg =
    { cfg with E.recovery = None; repl = None; storage = None; shard = None; chaos = [] }
  in
  let d = Strip_txn.Durable.create () in
  let db, h =
    sp "probe.txn.durable_run" (fun () ->
        let db = E.mk_db ~durable:d cfg in
        let h = Pta_tables.populate db ~feed:cfg.E.feed cfg.E.sizes in
        Trial.install cfg db h;
        ignore (Strip_ingest.Import.replay db (Trial.target h) (Feed.generate cfg.E.feed));
        Strip_db.checkpoint db;
        let duration = cfg.E.feed.Feed.duration in
        (* Checkpoints at 1/4, 1/2 and 3/4 of the feed leave a redo tail. *)
        Strip_db.schedule_checkpoints db ~every:(duration /. 4.0) ~until:(duration *. 0.8) ();
        Strip_db.run db;
        (db, h))
  in
  let module W = Strip_txn.Wal in
  let wal = Strip_txn.Durable.wal d in
  let records = ref [] in
  let decode =
    ns_per "probe.txn.wal_decode" (fun () ->
        records := List.map snd (W.read_from wal ~lsn:(W.base_lsn wal)).W.records;
        W.durable_bytes wal)
  in
  let copy = W.create () in
  let encode =
    ns_per "probe.txn.wal_encode" (fun () ->
        ignore (W.append_batch copy !records);
        W.fsync copy;
        W.durable_bytes copy)
  in
  let verify =
    ns_per "probe.txn.wal_verify" (fun () ->
        ignore (W.verify copy);
        W.durable_bytes copy)
  in
  let snap = ref None and image = ref "" in
  let capture =
    ns_per "probe.core.checkpoint_capture" (fun () ->
        let s =
          Checkpoint.capture ~cat:(Strip_db.catalog db) ~views:(Strip_db.view_sql db)
            ~reg:(Rule_manager.registry (Strip_db.rules db))
            ~now:(Strip_db.now db) ~wal_lsn:(W.durable_end wal)
        in
        snap := Some s;
        Checkpoint.total_rows s)
  in
  let encode_cp =
    ns_per "probe.core.checkpoint_encode" (fun () ->
        image := Checkpoint.encode (Option.get !snap);
        String.length !image)
  in
  let decode_cp =
    ns_per "probe.core.checkpoint_decode" (fun () ->
        ignore (Checkpoint.decode !image);
        String.length !image)
  in
  let ingest =
    ns_per "probe.repl.ingest" (fun () ->
        match Strip_txn.Durable.snapshot d with
        | None -> 0
        | Some image ->
          let lsn = Strip_txn.Durable.snapshot_lsn d in
          let r = Strip_repl.Replica.bootstrap ~id:0 ~image ~lsn ~time:0.0 () in
          let tail = W.durable_slice wal ~from_lsn:lsn in
          Strip_repl.Replica.ingest r tail ~horizon:(Strip_db.now db);
          String.length tail)
  in
  let table, _ = view_of cfg in
  let audit =
    ns_per "probe.core.audit" (fun () ->
        let r =
          Auditor.audit ~eps:(E.verify_tolerance cfg.E.rule) ~views:[ table ] db
        in
        if not (Auditor.clean r) then failwith "durable probe run failed its audit";
        Table.cardinal (member_table cfg h))
  in
  let recover =
    ns_per "probe.core.recover" (fun () ->
        let ndb = E.mk_db ~durable:d cfg in
        let rs =
          Recovery.recover ndb ~reinstall:(fun () -> Trial.install cfg ndb (Pta_tables.reattach ndb))
        in
        rs.Recovery.redo_ops)
  in
  [
    ("txn.wal_decode_ns_per_byte", decode);
    ("txn.wal_encode_ns_per_byte", encode);
    ("txn.wal_verify_ns_per_byte", verify);
    ("core.checkpoint_capture_ns_per_row", capture);
    ("core.checkpoint_encode_ns_per_byte", encode_cp);
    ("core.checkpoint_decode_ns_per_byte", decode_cp);
    ("repl.ingest_ns_per_byte", ingest);
    ("core.audit_ns_per_row", audit);
    ("core.recover_ns_per_redo_op", recover);
  ]

(* The traced pass.  A single-primary workload without durability is
   driven through the same public calls [Experiment.run] makes after
   setup ([Meter.reset], [Rule_manager.reset_stats], [Strip_db.run], then
   verification), so setup and steady state are split exactly; any other
   topology's steady state is the whole [Shard_exp.dispatch]. *)
let traced_pass (w : Workload.t) (cfg : E.config) =
  let counts, probes =
    sp "trial" (fun () ->
        let p = sp "setup" (fun () -> Trial.setup cfg) in
        let counts =
          match (w.Workload.topology, p) with
          | Workload.Plain, Trial.Single { db; h; _ } ->
            sp "steady" (fun () ->
                Meter.reset ();
                Rule_manager.reset_stats (Strip_db.rules db);
                Strip_db.run db;
                let expected, actual =
                  match cfg.E.rule with
                  | E.Comp_view _ -> (Comp_rules.recompute_from_scratch h, Comp_rules.maintained h)
                  | E.Option_view _ ->
                    (Option_rules.recompute_from_scratch h, Option_rules.maintained h)
                in
                if E.max_error expected actual > E.verify_tolerance cfg.E.rule then
                  failwith "traced run: maintained view differs from recomputation");
            Trial.meter_counts () @ db_counts db
          | _ ->
            let m = sp "steady" (fun () -> Shard_exp.dispatch { cfg with E.verify = true }) in
            if Trial.failed_checks m <> [] then failwith "traced run failed its checks";
            Trial.counts m
        in
        let table = table_probes cfg p in
        (counts, table @ durable_probes cfg))
  in
  let num = function Some v -> J.Float v | None -> J.Null in
  J.Obj
    [
      ("steady_s", J.Float (Spans.total "steady"));
      ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counts));
      ("probes", J.Obj (List.map (fun (k, v) -> (k, num v)) probes));
      ("self_s", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) (Spans.self_times ())));
      ("events", J.List (Spans.chrome_events ()));
    ]
