(* Crash recovery: WAL framing and corruption handling, fuzzy checkpoints,
   restart redo with exactly-once unique batches, crash semantics of the
   engine, and the derived-data consistency auditor. *)

open Strip_relational
open Strip_txn
open Strip_core
open Strip_pta
module Engine = Strip_sim.Engine
module Stats = Strip_sim.Stats

(* ------------------------------------------------------------------ *)
(* WAL: append / fsync / read round-trip *)

let sample_ops =
  [
    Wal.Insert
      {
        table = "t";
        order = 1;
        values = [| Value.Int 1; Value.Str "a"; Value.Float 1.5 |];
      };
    Wal.Update
      {
        table = "t";
        order = 2;
        old_values = [| Value.Int 1; Value.Str "a"; Value.Float 1.5 |];
        new_values = [| Value.Int 1; Value.Str "a"; Value.Float 2.5 |];
      };
    Wal.Delete
      { table = "u"; order = 3; values = [| Value.Null; Value.Bool true |] };
  ]

let sample_records =
  [
    Wal.Commit { txid = 7; time = 1.25; ops = sample_ops };
    Wal.Uq_enqueue
      {
        func = "f";
        key = [ Value.Str "S1" ];
        release_time = 2.0;
        created_at = 1.0;
        bound = [ ("matches", [ [| Value.Str "C1"; Value.Float 0.5 |] ]) ];
      };
    Wal.Uq_merge
      {
        func = "f";
        key = [ Value.Str "S1" ];
        bound = [ ("matches", [ [| Value.Str "C2"; Value.Float 0.25 |] ]) ];
      };
    Wal.Uq_release { func = "f"; key = [ Value.Str "S1" ] };
    Wal.Checkpoint_mark { time = 3.0; lsn = 0 };
  ]

let test_wal_roundtrip () =
  let w = Wal.create () in
  let lsns = List.map (Wal.append w) sample_records in
  Alcotest.(check bool) "LSNs strictly increase" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < 4) lsns) (List.tl lsns));
  Alcotest.(check int) "nothing durable before fsync" 0 (Wal.durable_bytes w);
  Wal.fsync w;
  Alcotest.(check int) "all bytes durable after fsync" (Wal.appended_bytes w)
    (Wal.durable_bytes w);
  let r = Wal.read w in
  Alcotest.(check (option int)) "no torn tail" None r.Wal.torn_at;
  Alcotest.(check (option int)) "no corruption" None r.Wal.corrupt_at;
  Alcotest.(check int) "every record read back" (List.length sample_records)
    (List.length r.Wal.records);
  List.iter2
    (fun expected (lsn, got) ->
      Alcotest.(check bool)
        (Printf.sprintf "record at lsn %d round-trips" lsn)
        true (expected = got))
    sample_records r.Wal.records;
  Alcotest.(check (list int)) "read returns the append LSNs" lsns
    (List.map fst r.Wal.records)

let test_wal_ops_of_tlog_order () =
  (* The redo ops must preserve the transaction's execute_order and full
     images, straight from the Tlog a commit would hand to the rule
     system. *)
  let db = Strip_db.create () in
  Strip_db.exec_script db
    {|create table t (k int, v float);
      insert into t values (1, 1.0), (2, 2.0)|};
  Strip_db.with_txn db (fun txn ->
      ignore (Transaction.exec txn "insert into t values (3, 3.0)");
      ignore (Transaction.exec txn "update t set v = 9.0 where k = 1");
      ignore (Transaction.exec txn "delete from t where k = 2");
      let ops = Wal.ops_of_tlog (Transaction.log txn) in
      Alcotest.(check (list int)) "execute_order preserved" [ 1; 2; 3 ]
        (List.map Wal.op_order ops);
      match ops with
      | [
       Wal.Insert { values = iv; _ };
       Wal.Update { old_values; new_values; _ };
       Wal.Delete { values = dv; _ };
      ] ->
        Alcotest.(check bool) "insert image" true
          (iv = [| Value.Int 3; Value.Float 3.0 |]);
        Alcotest.(check bool) "update old image" true
          (old_values = [| Value.Int 1; Value.Float 1.0 |]);
        Alcotest.(check bool) "update new image" true
          (new_values = [| Value.Int 1; Value.Float 9.0 |]);
        Alcotest.(check bool) "delete image" true
          (dv = [| Value.Int 2; Value.Float 2.0 |])
      | _ -> Alcotest.fail "expected [insert; update; delete]")

let test_wal_lose_tail () =
  let w = Wal.create () in
  let a = Wal.Commit { txid = 1; time = 0.1; ops = [] } in
  let b = Wal.Commit { txid = 2; time = 0.2; ops = [] } in
  let c = Wal.Commit { txid = 3; time = 0.3; ops = [] } in
  ignore (Wal.append w a);
  Wal.fsync w;
  ignore (Wal.append w b);
  Alcotest.(check bool) "b is pending" true (Wal.pending_bytes w > 0);
  Wal.lose_tail w;
  Alcotest.(check int) "pending tail gone" 0 (Wal.pending_bytes w);
  Alcotest.(check (list bool)) "only the fsynced record survives" [ true ]
    (List.map (fun (_, r) -> r = a) (Wal.read w).Wal.records);
  (* the log stays appendable after a crash *)
  ignore (Wal.append w c);
  Wal.fsync w;
  Alcotest.(check int) "append after crash works" 2
    (List.length (Wal.read w).Wal.records)

let test_wal_torn_tail () =
  let w = Wal.create () in
  let a = Wal.Commit { txid = 1; time = 0.1; ops = sample_ops } in
  let b = Wal.Commit { txid = 2; time = 0.2; ops = sample_ops } in
  ignore (Wal.append w a);
  let lsn_b = Wal.append w b in
  Wal.fsync w;
  let s = Wal.durable_contents w in
  (* chop the last record mid-frame: an incomplete final entry is a torn
     write, dropped without declaring the log corrupt *)
  Wal.set_durable_for_test w (String.sub s 0 (String.length s - 3));
  let r = Wal.read w in
  Alcotest.(check int) "prefix readable" 1 (List.length r.Wal.records);
  Alcotest.(check (option int)) "torn tail reported" (Some lsn_b) r.Wal.torn_at;
  Alcotest.(check (option int)) "not corruption" None r.Wal.corrupt_at

let test_wal_tail_cut_at_frame_boundary () =
  (* A crash that lands exactly on a frame boundary leaves a clean log:
     the last full record survives and nothing is reported torn.  One
     byte either side of the boundary must still classify as torn. *)
  let w = Wal.create () in
  let a = Wal.Commit { txid = 1; time = 0.1; ops = sample_ops } in
  let b = Wal.Commit { txid = 2; time = 0.2; ops = sample_ops } in
  let lsn_a = Wal.append w a in
  let lsn_b = Wal.append w b in
  Wal.fsync w;
  let s = Wal.durable_contents w in
  let boundary = lsn_b - lsn_a in
  (* exactly on the boundary: b never made it at all — clean *)
  Wal.set_durable_for_test w (String.sub s 0 boundary);
  let r = Wal.read w in
  Alcotest.(check (option int)) "boundary cut is clean" None r.Wal.torn_at;
  Alcotest.(check (option int)) "boundary cut is not corrupt" None
    r.Wal.corrupt_at;
  Alcotest.(check (list int)) "whole prefix read" [ lsn_a ]
    (List.map fst r.Wal.records);
  (* one byte past the boundary: a sliver of b's header — torn at b *)
  Wal.set_durable_for_test w (String.sub s 0 (boundary + 1));
  let r = Wal.read w in
  Alcotest.(check (option int)) "boundary+1 torn at b" (Some lsn_b)
    r.Wal.torn_at;
  Alcotest.(check int) "a still read" 1 (List.length r.Wal.records);
  (* one byte short of the boundary: a's frame is incomplete — torn at a *)
  Wal.set_durable_for_test w (String.sub s 0 (boundary - 1));
  let r = Wal.read w in
  Alcotest.(check (option int)) "boundary-1 torn at a" (Some lsn_a)
    r.Wal.torn_at;
  Alcotest.(check int) "nothing read" 0 (List.length r.Wal.records)

let test_wal_append_batch_equivalence () =
  (* append_batch is a pure encoding optimisation: byte stream, LSNs and
     meter ticks must match the per-record appends exactly. *)
  let one = Wal.create () and batch = Wal.create () in
  Meter.reset ();
  let before = Meter.snapshot () in
  let lsns_one = List.map (Wal.append one) sample_records in
  let ticks_one = Meter.diff before (Meter.snapshot ()) in
  let before = Meter.snapshot () in
  let lsns_batch = Wal.append_batch batch sample_records in
  let ticks_batch = Meter.diff before (Meter.snapshot ()) in
  Wal.fsync one;
  Wal.fsync batch;
  Alcotest.(check (list int)) "same LSNs" lsns_one lsns_batch;
  Alcotest.(check string) "same bytes" (Wal.durable_contents one)
    (Wal.durable_contents batch);
  Alcotest.(check (list (pair string int))) "same meter ticks" ticks_one
    ticks_batch;
  Alcotest.(check int) "same append count" (Wal.n_appends one)
    (Wal.n_appends batch);
  Alcotest.(check (list int)) "empty batch appends nothing" []
    (Wal.append_batch batch []);
  Alcotest.(check int) "volume accounted" (Wal.appended_bytes one)
    (Wal.appended_bytes batch)

let test_wal_mid_log_corruption () =
  let w = Wal.create () in
  let a = Wal.Commit { txid = 1; time = 0.1; ops = sample_ops } in
  let b = Wal.Commit { txid = 2; time = 0.2; ops = sample_ops } in
  let c = Wal.Commit { txid = 3; time = 0.3; ops = sample_ops } in
  let lsn_a = Wal.append w a in
  let lsn_b = Wal.append w b in
  ignore (Wal.append w c);
  Wal.fsync w;
  let s = Bytes.of_string (Wal.durable_contents w) in
  (* flip one payload byte of the middle record: valid entries follow, so
     this is mid-log corruption, and scanning must stop there rather than
     resynchronize on garbage *)
  let off = lsn_b - lsn_a + 10 in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xff));
  Wal.set_durable_for_test w (Bytes.to_string s);
  let r = Wal.read w in
  Alcotest.(check int) "only the prefix is trusted" 1 (List.length r.Wal.records);
  Alcotest.(check (option int)) "corruption reported at the bad entry"
    (Some lsn_b) r.Wal.corrupt_at

let test_wal_truncate () =
  let w = Wal.create () in
  let a = Wal.Commit { txid = 1; time = 0.1; ops = [] } in
  let b = Wal.Commit { txid = 2; time = 0.2; ops = sample_ops } in
  ignore (Wal.append w a);
  let lsn_b = Wal.append w b in
  Wal.fsync w;
  Wal.truncate_to w ~lsn:lsn_b;
  Alcotest.(check int) "base moved to the checkpoint LSN" lsn_b (Wal.base_lsn w);
  let r = Wal.read w in
  Alcotest.(check (list int)) "later entries keep their LSNs" [ lsn_b ]
    (List.map fst r.Wal.records);
  Alcotest.(check bool) "record intact" true
    (snd (List.hd r.Wal.records) = b);
  Alcotest.(check bool) "LSN outside the durable log rejected" true
    (match Wal.truncate_to w ~lsn:(Wal.durable_end w + 1) with
    | exception Wal.Out_of_range _ -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* Checkpoints *)

let figure4_script =
  {|create table stocks (symbol string, price float);
    create index stocks_sym on stocks (symbol);
    create table comps_list (comp string, symbol string, weight float);
    create index cl_sym on comps_list (symbol);
    insert into stocks values ('S1', 30.0), ('S2', 40.0), ('S3', 50.0);
    insert into comps_list values
      ('C1','S1',0.5), ('C1','S3',0.5), ('C2','S1',0.3), ('C2','S2',0.7)|}

let comp_view_sql =
  "create view comp_prices as select comp, sum(price * weight) as price \
   from stocks, comps_list where stocks.symbol = comps_list.symbol group by \
   comp"

let condition =
  {|select comp, comps_list.symbol as symbol, weight,
           old.price as old_price, new.price as new_price
    from comps_list, new, old
    where comps_list.symbol = new.symbol
      and new.execute_order = old.execute_order
    bind as matches|}

(* Incremental comp_prices maintenance over the bound batch, as in the
   paper's Figure 4/5 example. *)
let install_comp_rule db =
  Strip_db.register_function db "f" (fun ctx ->
      let r =
        Transaction.query ctx.Rule_manager.txn
          "select comp, sum((new_price - old_price) * weight) as diff from \
           matches group by comp"
      in
      List.iter
        (fun row ->
          ignore
            (Transaction.exec ctx.Rule_manager.txn
               (Printf.sprintf
                  "update comp_prices set price += %.17g where comp = '%s'"
                  (Value.to_float row.(1))
                  (Value.to_string row.(0)))))
        (Query.rows r));
  Strip_db.create_rule db
    (Printf.sprintf
       "create rule r on stocks when updated price if %s then execute f \
        unique after 1.0 seconds"
       condition)

let setup_durable_db durable =
  let db = Strip_db.create ~durable () in
  Strip_db.exec_script db figure4_script;
  Strip_db.declare_view db ~sql:comp_view_sql;
  install_comp_rule db;
  db

let test_checkpoint_roundtrip () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db = setup_durable_db durable in
  (* two updates merge into one queued unique batch; stop before its 1 s
     release so the checkpoint must capture it *)
  Strip_db.submit_update db ~at:0.0 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 31.0 where symbol = 'S1'"));
  Strip_db.submit_update db ~at:0.3 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 38.0 where symbol = 'S2'"));
  Strip_db.run db ~until:0.5;
  Strip_db.checkpoint db;
  let encoded =
    match Durable.snapshot durable with
    | Some s -> s
    | None -> Alcotest.fail "checkpoint not installed"
  in
  let cp = Checkpoint.decode encoded in
  Alcotest.(check string) "encode/decode round-trips" encoded
    (Checkpoint.encode cp);
  Alcotest.(check (list string)) "base tables and the view captured"
    [ "stocks"; "comps_list"; "comp_prices" ]
    (List.map (fun (t : Checkpoint.table_snap) -> t.Checkpoint.tname)
       cp.Checkpoint.tables);
  Alcotest.(check (list string)) "view definition captured" [ "comp_prices" ]
    (List.map fst cp.Checkpoint.views);
  (match cp.Checkpoint.queue with
  | [ q ] ->
    Alcotest.(check string) "queued unique transaction captured" "f"
      q.Checkpoint.qfunc;
    Alcotest.(check (float 1e-9)) "with its release time" 1.0
      q.Checkpoint.qrelease_time;
    Alcotest.(check int) "with the merged batch (3 matches rows)" 3
      (List.fold_left
         (fun acc (_, rows) -> acc + List.length rows)
         0 q.Checkpoint.qbound)
  | q -> Alcotest.fail (Printf.sprintf "expected 1 queue entry, got %d" (List.length q)));
  Alcotest.(check int) "log truncated behind the checkpoint"
    (Durable.snapshot_lsn durable)
    (Wal.base_lsn (Durable.wal durable));
  (* the run finishes normally after a checkpoint *)
  Strip_db.run db;
  Alcotest.(check int) "no divergence after drain" 0
    (List.length (Auditor.audit db).Auditor.divergences)

(* ------------------------------------------------------------------ *)
(* Crash + restart: exactly-once across the WAL and rebuilt queue *)

let test_crash_recovery_exactly_once () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db1 = setup_durable_db durable in
  Strip_db.checkpoint db1;
  Strip_db.submit_update db1 ~at:0.0 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 31.0 where symbol = 'S1'");
      ignore
        (Transaction.exec txn "update stocks set price = 39.0 where symbol = 'S2'"));
  Strip_db.submit_update db1 ~at:0.3 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 38.0 where symbol = 'S2'");
      ignore
        (Transaction.exec txn "update stocks set price = 51.0 where symbol = 'S3'"));
  (* both updates commit (and fsync); the merged unique batch is still
     queued when the crash hits *)
  Strip_db.run db1 ~until:0.5;
  Strip_db.crash db1;
  let db2 = Strip_db.create ~now:0.5 ~durable () in
  let rs = Recovery.recover db2 ~reinstall:(fun () -> install_comp_rule db2) in
  Alcotest.(check bool) "recovered from the checkpoint" true
    rs.Recovery.had_checkpoint;
  Alcotest.(check int) "both update commits redone" 2 rs.Recovery.redo_commits;
  Alcotest.(check int) "the queued batch rebuilt" 1 rs.Recovery.requeued;
  Alcotest.(check int) "with every merged row" 5 rs.Recovery.requeued_rows;
  Alcotest.(check bool) "clean log tail" true
    ((not rs.Recovery.torn_tail) && not rs.Recovery.corrupt_tail);
  Strip_db.run db2;
  (* exactly-once: each diff applied once, none lost, none doubled *)
  Alcotest.(check (list (pair string (float 1e-9))))
    "maintained view caught up after the crash"
    [ ("C1", 41.0); ("C2", 35.9) ]
    (List.map
       (fun row -> (Value.to_string row.(0), Value.to_float row.(1)))
       (Strip_db.query_rows db2
          "select comp, price from comp_prices order by comp"));
  Alcotest.(check int) "auditor agrees" 0
    (List.length (Auditor.audit db2).Auditor.divergences)

let test_recovered_base_equals_pre_crash () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db1 = setup_durable_db durable in
  Strip_db.checkpoint db1;
  Strip_db.submit_update db1 ~at:0.0 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 33.0 where symbol = 'S1'"));
  Strip_db.run db1;
  let before =
    Strip_db.query_rows db1 "select symbol, price from stocks order by symbol"
  in
  Strip_db.crash db1;
  let db2 = Strip_db.create ~durable () in
  ignore (Recovery.recover db2 ~reinstall:(fun () -> install_comp_rule db2));
  Alcotest.(check bool) "redo reproduces the committed base state" true
    (before
    = Strip_db.query_rows db2 "select symbol, price from stocks order by symbol")

(* ------------------------------------------------------------------ *)
(* Engine crash semantics: no zombie waiters (satellite regression) *)

let test_discard_all_drains_parked_waiters () =
  Task.reset_ids ();
  let cat = Catalog.create () in
  ignore (Sql_exec.exec_string cat ~env:[] "create table t (k int, v float)");
  ignore (Sql_exec.exec_string cat ~env:[] "insert into t values (3, 0.0)");
  let clock = Clock.create () in
  let locks = Lock.create () in
  let eng = Engine.create ~clock ~locks ~servers:2 () in
  let writer () =
    Task.create ~klass:Task.Update ~func_name:"w" ~release_time:0.0
      ~created_at:0.0 (fun _ ->
        let txn = Transaction.begin_ ~cat ~locks ~clock () in
        (try
           ignore (Transaction.exec txn "update t set v = v + 1.0 where k = 3");
           Transaction.commit txn
         with e ->
           if Transaction.status txn = Transaction.Active then
             Transaction.abort txn;
           raise e))
  in
  let w1 = writer () in
  let w2 = writer () in
  let schema = Schema.of_list [ ("x", Value.TInt) ] in
  let bound = Temp_table.create_materialized ~name:"b" ~schema in
  Temp_table.append_values bound [| Value.Int 1 |];
  let crasher =
    Task.create ~klass:Task.Background ~func_name:"crash" ~release_time:0.0
      ~created_at:0.0
      ~bound:[ ("b", bound) ]
      (fun _ -> raise (Fault.Crashed { at = "test" }))
  in
  Engine.submit eng w1;
  Engine.submit eng w2;
  Engine.submit eng crasher;
  (* w1 holds the row's lock as a zombie until its completion event; w2
     parks on it; the crash fires before any completion is processed *)
  (match Engine.run eng with
  | exception Fault.Crashed _ -> ()
  | () -> Alcotest.fail "crash should propagate");
  Alcotest.(check int) "a waiter was parked when the crash hit" 1
    (Engine.parked_count eng);
  Engine.discard_all eng;
  Alcotest.(check int) "no zombie waiters" 0 (Engine.parked_count eng);
  Alcotest.(check int) "ready queue empty" 0 (Engine.ready_length eng);
  Alcotest.(check int) "event queue empty" 0 (Engine.delayed_length eng);
  Alcotest.(check bool) "parked task left in a well-defined state" true
    (w2.Task.state = Task.Cancelled);
  Alcotest.(check bool) "bound tables retired with their tasks" true
    (Temp_table.retired bound)

(* ------------------------------------------------------------------ *)
(* Auditor: detect, repair, converge *)

let test_auditor_detects_and_repairs () =
  Task.reset_ids ();
  let db = Strip_db.create () in
  Strip_db.exec_script db figure4_script;
  Strip_db.declare_view db ~sql:comp_view_sql;
  Alcotest.(check bool) "fresh view audits clean" true
    (Auditor.clean (Auditor.audit db));
  (* silent corruption: damage the materialized view without touching base
     data, as a lost or doubled maintenance transaction would *)
  Strip_db.submit_update db ~at:0.0 ~label:"corrupt" (fun txn ->
      ignore
        (Transaction.exec txn
           "update comp_prices set price = 999.0 where comp = 'C1'"));
  Strip_db.run db;
  let r = Auditor.audit db in
  (match r.Auditor.divergences with
  | [ d ] ->
    Alcotest.(check string) "right view" "comp_prices" d.Auditor.view;
    Alcotest.(check string) "right key" "C1" (Value.to_string d.Auditor.key)
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 divergence, got %d" (List.length ds)));
  Alcotest.(check int) "one repair enqueued" 1 (Auditor.enqueue_repairs db r);
  Strip_db.run db;
  Alcotest.(check bool) "repair converged" true (Auditor.clean (Auditor.audit db));
  Alcotest.(check (list (pair string (float 1e-9))))
    "repaired values recomputed from base"
    [ ("C1", 40.0); ("C2", 37.0) ]
    (List.map
       (fun row -> (Value.to_string row.(0), Value.to_float row.(1)))
       (Strip_db.query_rows db "select comp, price from comp_prices order by comp"))

let test_auditor_view_filter () =
  let db = Strip_db.create () in
  Strip_db.exec_script db figure4_script;
  Strip_db.declare_view db ~sql:comp_view_sql;
  let r = Auditor.audit ~views:[ "comp_prices" ] db in
  Alcotest.(check (list string)) "only the selected view audited"
    [ "comp_prices" ] (List.map fst r.Auditor.audited);
  let none = Auditor.audit ~views:[ "nosuch" ] db in
  Alcotest.(check int) "unknown names select nothing" 0
    (List.length none.Auditor.audited)

(* ------------------------------------------------------------------ *)
(* End-to-end: experiment crash-restart loop, audit gate, determinism *)

let crashy_cfg () =
  let cfg =
    Experiment.default_config
      (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0
  in
  let cfg = Experiment.quick cfg 0.02 in
  {
    cfg with
    Experiment.recovery =
      Some
        {
          Experiment.default_recovery with
          Experiment.checkpoint_every = Some 5.0;
          crash_at = Some (cfg.Experiment.feed.Strip_market.Feed.duration /. 2.0);
        };
  }

let test_experiment_crash_recovery () =
  Task.reset_ids ();
  let m = Experiment.run (crashy_cfg ()) in
  let r =
    match m.Experiment.recovery with
    | Some r -> r
    | None -> Alcotest.fail "recovery metrics missing"
  in
  Alcotest.(check int) "exactly the scheduled crash" 1 r.Experiment.n_crashes;
  Alcotest.(check bool) "log was replayed" true (r.Experiment.redo_commits > 0);
  Alcotest.(check bool) "queued batches rebuilt" true (r.Experiment.requeued > 0);
  Alcotest.(check bool) "recovery downtime charged" true
    (r.Experiment.total_recovery_s > 0.0);
  Alcotest.(check bool) "audit clean without repairs" true
    (r.Experiment.audit_clean && r.Experiment.repairs = 0);
  Alcotest.(check (option bool)) "view verified against recomputation"
    (Some true) m.Experiment.verified

let test_experiment_crash_determinism () =
  Task.reset_ids ();
  let a = Experiment.run (crashy_cfg ()) in
  Task.reset_ids ();
  let b = Experiment.run (crashy_cfg ()) in
  Alcotest.(check string) "same seed, same crash, byte-identical metrics"
    (Strip_obs.Json.to_string (Report.metrics_json a))
    (Strip_obs.Json.to_string (Report.metrics_json b))

let test_crash_free_run_has_no_recovery_surface () =
  Task.reset_ids ();
  let cfg =
    Experiment.quick
      (Experiment.default_config
         (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0)
      0.02
  in
  let m = Experiment.run cfg in
  Alcotest.(check bool) "no recovery block without a recovery config" true
    (m.Experiment.recovery = None);
  let json = Strip_obs.Json.to_string (Report.metrics_json m) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    nn = 0 || at 0
  in
  Alcotest.(check bool) "JSON carries no recovery member" false
    (contains json "\"recovery\"")

(* lock_wait_s folds every incarnation's histogram, so its count is
   n_lock_waits even when waits happen on both sides of a crash. *)
let test_lock_waits_span_incarnations () =
  Task.reset_ids ();
  let cfg =
    Experiment.quick
      (Experiment.default_config
         (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0)
      0.05
  in
  let cfg =
    {
      cfg with
      Experiment.servers = 4;
      recovery =
        Some
          {
            Experiment.default_recovery with
            Experiment.checkpoint_every = Some 5.0;
            crash_at = Some 45.0;
          };
    }
  in
  let m = Experiment.run cfg in
  Alcotest.(check bool) "tasks waited on locks" true
    (m.Experiment.n_lock_waits > 0);
  let n =
    match m.Experiment.lock_wait_s with
    | Some s -> s.Strip_obs.Histogram.n
    | None -> 0
  in
  Alcotest.(check int) "histogram count = n_lock_waits" m.Experiment.n_lock_waits
    n

(* ------------------------------------------------------------------ *)
(* Temp_table.absorb into a fully-materialized destination (recovered
   TCBs carry no record pointers) *)

(* ------------------------------------------------------------------ *)
(* Causal tracing: a queued batch's trace context survives crash+restart *)

let test_trace_ctx_survives_recovery () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let tr1 = Strip_obs.Trace.create () in
  let db1 = Strip_db.create ~durable ~trace:tr1 () in
  Strip_db.exec_script db1 figure4_script;
  Strip_db.declare_view db1 ~sql:comp_view_sql;
  install_comp_rule db1;
  (* checkpoint first: the enqueue and its WAL trace note land after the
     checkpoint LSN, so recovery replays both *)
  Strip_db.checkpoint db1;
  Strip_db.submit_update db1 ~at:0.0 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 31.0 where symbol = 'S1'"));
  (* stop before the batch's 1 s release: it is still queued at the crash *)
  Strip_db.run db1 ~until:0.5;
  let uq_notes =
    List.filter_map
      (fun (_, r) ->
        match r with
        | Wal.Trace_note { subject = Wal.For_uq _; trace; span } ->
          Some (trace, span)
        | _ -> None)
      (Wal.read (Durable.wal durable)).Wal.records
  in
  let otrace, ospan =
    match uq_notes with
    | [ x ] -> x
    | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 For_uq trace note, got %d" (List.length l))
  in
  Strip_db.crash db1;
  let tr2 = Strip_obs.Trace.create () in
  let db2 = Strip_db.create ~now:0.5 ~durable ~trace:tr2 () in
  ignore (Recovery.recover db2 ~reinstall:(fun () -> install_comp_rule db2));
  Strip_db.run db2;
  (* the resubmitted batch's events on the restarted node stay inside the
     pre-crash trace, parent-linked to the original enqueue span *)
  let linked =
    List.exists
      (fun (e : Strip_obs.Trace.event) ->
        List.mem ("trace", Strip_obs.Trace.Int otrace) e.Strip_obs.Trace.args
        && List.mem ("parent", Strip_obs.Trace.Int ospan) e.Strip_obs.Trace.args)
      (Strip_obs.Trace.events tr2)
  in
  Alcotest.(check bool) "restart continues the pre-crash trace" true linked;
  Alcotest.(check int) "and the recovered view is correct" 0
    (List.length (Auditor.audit db2).Auditor.divergences)

let test_absorb_into_materialized () =
  let schema = Schema.of_list [ ("k", Value.TInt); ("v", Value.TFloat) ] in
  let dst = Temp_table.create_materialized ~name:"dst" ~schema in
  Temp_table.append_values dst [| Value.Int 1; Value.Float 1.0 |];
  (* a pointer-carrying source, as a live merge would produce *)
  let rec1 = Record.create [| Value.Int 2; Value.Float 2.0 |] in
  let src =
    Temp_table.create ~name:"src" ~schema ~nslots:1
      ~prov:[| Temp_table.From_record (0, 0); Temp_table.From_record (0, 1) |]
  in
  Temp_table.append src ~srcs:[| rec1 |] ~mats:[||];
  Temp_table.absorb dst src;
  Alcotest.(check int) "rows copied by value" 2 (Temp_table.cardinal dst);
  Alcotest.(check bool) "source emptied" true (Temp_table.cardinal src = 0);
  Alcotest.(check bool) "values materialized in the destination" true
    (Temp_table.to_rows dst
    = [
        [| Value.Int 1; Value.Float 1.0 |]; [| Value.Int 2; Value.Float 2.0 |];
      ])

let suite =
  [
    ( "recovery/wal",
      [
        Alcotest.test_case "record round-trip" `Quick test_wal_roundtrip;
        Alcotest.test_case "tlog ops preserve execute_order" `Quick
          test_wal_ops_of_tlog_order;
        Alcotest.test_case "crash loses the unsynced tail" `Quick
          test_wal_lose_tail;
        Alcotest.test_case "torn tail dropped" `Quick test_wal_torn_tail;
        Alcotest.test_case "tail cut at frame boundary is clean" `Quick
          test_wal_tail_cut_at_frame_boundary;
        Alcotest.test_case "append_batch equivalence" `Quick
          test_wal_append_batch_equivalence;
        Alcotest.test_case "mid-log corruption stops the scan" `Quick
          test_wal_mid_log_corruption;
        Alcotest.test_case "truncation behind a checkpoint" `Quick
          test_wal_truncate;
      ] );
    ( "recovery/checkpoint",
      [
        Alcotest.test_case "fuzzy checkpoint round-trip" `Quick
          test_checkpoint_roundtrip;
      ] );
    ( "recovery/restart",
      [
        Alcotest.test_case "exactly-once across a crash" `Quick
          test_crash_recovery_exactly_once;
        Alcotest.test_case "redo reproduces committed base state" `Quick
          test_recovered_base_equals_pre_crash;
        Alcotest.test_case "discard_all drains parked waiters" `Quick
          test_discard_all_drains_parked_waiters;
        Alcotest.test_case "absorb into a materialized TCB" `Quick
          test_absorb_into_materialized;
        Alcotest.test_case "trace context survives crash+restart" `Quick
          test_trace_ctx_survives_recovery;
      ] );
    ( "recovery/auditor",
      [
        Alcotest.test_case "detects and repairs a damaged view" `Quick
          test_auditor_detects_and_repairs;
        Alcotest.test_case "view filter" `Quick test_auditor_view_filter;
      ] );
    ( "recovery/experiment",
      [
        Alcotest.test_case "crash-restart loop recovers and audits clean"
          `Slow test_experiment_crash_recovery;
        Alcotest.test_case "crashy runs are deterministic" `Slow
          test_experiment_crash_determinism;
        Alcotest.test_case "crash-free runs expose no recovery surface" `Slow
          test_crash_free_run_has_no_recovery_surface;
        Alcotest.test_case "lock waits span every incarnation" `Slow
          test_lock_waits_span_incarnations;
      ] );
  ]
