open Strip_relational
open Strip_txn
open Strip_core

(* End-to-end behaviours that cut across every layer. *)

let test_exec_script_mixes_sql_and_rules () =
  let db = Strip_db.create () in
  let hits = ref 0 in
  Strip_db.register_function db "bump" (fun _ -> incr hits);
  Strip_db.exec_script db
    {|create table t (k string, v int);
      create index t_k on t (k);
      insert into t values ('a', 1);
      create rule watch on t when updated v then execute bump;
      update t set v = 2 where k = 'a'|};
  Strip_db.run db;
  Alcotest.(check int) "rule from script fired" 1 !hits

let test_with_txn_commit_and_abort () =
  let db = Strip_db.create () in
  ignore (Strip_db.exec db "create table t (k string, v int)");
  Strip_db.with_txn db (fun txn ->
      ignore (Transaction.exec txn "insert into t values ('a', 1)");
      ignore (Transaction.exec txn "insert into t values ('b', 2)"));
  Alcotest.(check int) "committed" 2
    (List.length (Strip_db.query_rows db "select k from t"));
  (match
     Strip_db.with_txn db (fun txn ->
         ignore (Transaction.exec txn "insert into t values ('c', 3)");
         failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "rolled back" 2
    (List.length (Strip_db.query_rows db "select k from t"))

let test_failing_action_aborts_cleanly () =
  let db = Strip_db.create () in
  ignore (Strip_db.exec db "create table t (k string, v int)");
  ignore (Strip_db.exec db "create table audit (k string)");
  ignore (Strip_db.exec db "insert into t values ('a', 1)");
  Strip_db.register_function db "bad" (fun ctx ->
      ignore
        (Transaction.exec ctx.Rule_manager.txn "insert into audit values ('x')");
      failwith "action failure");
  Strip_db.create_rule db "create rule r on t when updated then execute bad";
  ignore (Strip_db.exec db "update t set v = 2 where k = 'a'");
  (match Strip_db.run db with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "action failure swallowed");
  Alcotest.(check int) "action transaction rolled back" 0
    (List.length (Strip_db.query_rows db "select k from audit"));
  Alcotest.(check string) "base change survives" "2"
    (Value.to_string (List.hd (Strip_db.query_rows db "select v from t")).(0))

let test_insert_triggered_view_refresh_is_exact () =
  (* a complete mini-application: watch inserts, maintain a running total *)
  let db = Strip_db.create () in
  Strip_db.exec_script db
    {|create table orders (customer string, total float);
      create index orders_c on orders (customer);
      create table balances (customer string, owed float);
      create index balances_c on balances (customer);
      insert into balances values ('alice', 0.0), ('bob', 0.0)|};
  Strip_db.register_function db "charge" (fun ctx ->
      let rows =
        Transaction.query ctx.Rule_manager.txn
          "select customer, sum(total) as t from new_orders group by customer"
      in
      List.iter
        (fun r ->
          ignore
            (Transaction.exec ctx.Rule_manager.txn
               (Printf.sprintf
                  "update balances set owed += %s where customer = '%s'"
                  (Value.to_string r.(1)) (Value.to_string r.(0)))))
        (Query.rows rows));
  Strip_db.create_rule db
    {|create rule on_order on orders when inserted
      if select customer, total from inserted bind as new_orders
      then execute charge unique on customer after 0.5 seconds|};
  List.iteri
    (fun i (c, v) ->
      Strip_db.submit_update db
        ~at:(0.05 *. float_of_int i)
        (fun txn ->
          ignore
            (Transaction.exec txn
               (Printf.sprintf "insert into orders values ('%s', %f)" c v))))
    [ ("alice", 10.0); ("bob", 5.0); ("alice", 2.5); ("alice", 1.0); ("bob", 4.0) ];
  Strip_db.run db;
  Alcotest.(check (list (pair string (float 1e-9))))
    "balances"
    [ ("alice", 13.5); ("bob", 9.0) ]
    (List.map
       (fun r -> (Value.to_string r.(0), Value.to_float r.(1)))
       (Strip_db.query_rows db
          "select customer, owed from balances order by customer"));
  (* batching actually happened: fewer action transactions than orders *)
  Alcotest.(check bool) "merged" true
    (Rule_manager.n_tasks_created (Strip_db.rules db) < 5)

let test_view_definitions_captured () =
  let db = Strip_db.create () in
  ignore (Strip_db.exec db "create table t (g string, x float)");
  ignore (Strip_db.exec db "insert into t values ('a', 1.0)");
  ignore
    (Strip_db.exec db "create view v as select g, sum(x) as s from t group by g");
  Alcotest.(check (list string)) "captured" [ "v" ]
    (List.map fst (Strip_db.view_definitions db));
  Alcotest.(check int) "materialized" 1
    (List.length (Strip_db.query_rows db "select g from v"))

let test_statement_routing () =
  let db = Strip_db.create () in
  ignore (Strip_db.exec db "create table t (a int)");
  Strip_db.register_function db "noop" (fun _ -> ());
  (match Strip_db.exec db "create rule r on t when inserted then execute noop" with
  | Sql_exec.Unit -> ()
  | _ -> Alcotest.fail "rule DDL should yield Unit");
  match Strip_db.exec db "insert into t values (1)" with
  | Sql_exec.Count 1 -> ()
  | _ -> Alcotest.fail "insert should yield Count 1"

let test_reclaim_lifecycle_under_rules () =
  (* The full §6.1 story: an update's pre-image stays alive exactly as long
     as a bound table references it. *)
  let db = Strip_db.create () in
  ignore (Strip_db.exec db "create table t (k string, v int)");
  ignore (Strip_db.exec db "insert into t values ('a', 1)");
  let observed = ref [] in
  Strip_db.register_function db "peek" (fun ctx ->
      let rows =
        Query.rows (Transaction.query ctx.Rule_manager.txn "select ov from img")
      in
      observed := Value.to_int (List.hd rows).(0) :: !observed);
  Strip_db.create_rule db
    {|create rule r on t when updated v
      if select old.v as ov from new, old
         where new.execute_order = old.execute_order
         bind as img
      then execute peek after 1.0 seconds|};
  ignore (Strip_db.exec db "update t set v = 2 where k = 'a'");
  (* overwrite again before the action runs: the bound table must still see
     the first pre-image *)
  ignore (Strip_db.exec db "update t set v = 3 where k = 'a'");
  Record.reset_reclaimed ();
  Strip_db.run db;
  (* each task sees its own firing's pre-image, even though both records
     were overwritten before the tasks ran *)
  Alcotest.(check (list int)) "both pre-images observed" [ 1; 2 ]
    (List.sort compare !observed);
  Alcotest.(check bool) "retired versions reclaimed after the tasks" true
    (Record.reclaimed_count () >= 2)

(* Every 10 s until 35 s, a periodic transaction bumps a gauge; an update
   at 12 s adds 100.  Returns the database, the start time of every tick
   attempt, and the gauge. *)
let periodic_gauge ?fault ?retry () =
  let db = Strip_db.create ?fault ?retry () in
  ignore (Strip_db.exec db "create table gauge (n int)");
  ignore (Strip_db.exec db "insert into gauge values (0)");
  let times = ref [] in
  Strip_db.schedule_periodic db ~every:10.0 ~until:35.0 (fun txn ->
      times := Strip_db.now db :: !times;
      ignore (Transaction.exec txn "update gauge set n += 1"));
  (* interleave a normal update to show coexistence *)
  Strip_db.submit_update db ~at:12.0 (fun txn ->
      ignore (Transaction.exec txn "update gauge set n += 100"));
  Strip_db.run db;
  ( db,
    List.rev !times,
    Value.to_string (List.hd (Strip_db.query_rows db "select n from gauge")).(0) )

let test_periodic_recomputation () =
  (* §3: stock_stdev would be refreshed periodically rather than by rules *)
  let db, times, gauge = periodic_gauge () in
  Alcotest.(check (list (float 0.01))) "fired on schedule" [ 10.0; 20.0; 30.0 ]
    times;
  Alcotest.(check string) "all effects applied" "103" gauge;
  match Strip_db.schedule_periodic db ~every:0.0 (fun _ -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero period accepted"

(* Half of all commits abort and are retried: a tick schedules its
   successor only once its transaction commits, so each period's effect
   is applied exactly once however often its tick is retried. *)
let test_periodic_recomputation_retried () =
  let retry =
    {
      Strip_sim.Engine.max_attempts = 20;
      base_backoff_s = 0.01;
      max_backoff_s = 0.1;
    }
  in
  let db, times, gauge =
    periodic_gauge ~fault:(Fault.abort_only ~seed:5 0.5) ~retry ()
  in
  let stats = Strip_db.stats db in
  Alcotest.(check bool) "some ticks were retried" true
    (List.length times > 3 && Strip_sim.Stats.n_retries stats > 0);
  Alcotest.(check int) "nothing dead-lettered" 0
    (Strip_sim.Stats.n_dead_letters stats);
  Alcotest.(check (list int)) "every attempt within its period" [ 1; 2; 3 ]
    (List.sort_uniq compare
       (List.map (fun t -> int_of_float (t /. 10.0)) times));
  Alcotest.(check string) "each period's effect applied exactly once" "103"
    gauge

let test_meter_snapshot_diff () =
  Meter.reset ();
  let before = Meter.snapshot () in
  Meter.tick "alpha_ctr";
  Meter.tick_n "alpha_ctr" 2;
  Meter.tick "beta_ctr";
  let d = Meter.diff before (Meter.snapshot ()) in
  Alcotest.(check (list (pair string int)))
    "deltas" [ ("alpha_ctr", 3); ("beta_ctr", 1) ]
    (List.filter (fun (k, _) -> k = "alpha_ctr" || k = "beta_ctr") d)

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "scripts mix SQL and rule DDL" `Quick
          test_exec_script_mixes_sql_and_rules;
        Alcotest.test_case "with_txn commit/abort" `Quick test_with_txn_commit_and_abort;
        Alcotest.test_case "failing action aborts cleanly" `Quick
          test_failing_action_aborts_cleanly;
        Alcotest.test_case "order-processing mini app" `Quick
          test_insert_triggered_view_refresh_is_exact;
        Alcotest.test_case "view definitions captured" `Quick
          test_view_definitions_captured;
        Alcotest.test_case "statement routing" `Quick test_statement_routing;
        Alcotest.test_case "pre-image lifecycle under rules (§6.1)" `Quick
          test_reclaim_lifecycle_under_rules;
        Alcotest.test_case "periodic recomputation (§3)" `Quick
          test_periodic_recomputation;
        Alcotest.test_case "periodic recomputation under retried aborts"
          `Quick test_periodic_recomputation_retried;
        Alcotest.test_case "meter snapshot diff" `Quick test_meter_snapshot_diff;
      ] );
  ]
