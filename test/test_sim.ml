open Strip_relational
open Strip_txn
open Strip_sim

let test_cost_model_simple_update () =
  Alcotest.(check (float 1e-9)) "the paper's 172 us" 172.0
    (Cost_model.simple_update_us Cost_model.default);
  Alcotest.(check int) "table-1 has ten rows" 10
    (List.length (Cost_model.table1_entries Cost_model.default))

let test_cost_model_charge_and_override () =
  let m = Cost_model.default in
  Alcotest.(check (float 1e-9)) "charge"
    ((2.0 *. Cost_model.cost_us m "get_lock") +. Cost_model.cost_us m "bs_eval")
    (Cost_model.charge m [ ("get_lock", 2); ("bs_eval", 1) ]);
  let m' = Cost_model.override m [ ("bs_eval", 1.0) ] in
  Alcotest.(check (float 1e-9)) "override" 1.0 (Cost_model.cost_us m' "bs_eval");
  Alcotest.(check (float 1e-9)) "original untouched"
    (Cost_model.cost_us m "bs_eval")
    (Cost_model.cost_us Cost_model.default "bs_eval");
  ignore (Cost_model.cost_us m "definitely_not_a_counter_xyz");
  Alcotest.(check bool) "unknown counter remembered" true
    (List.mem "definitely_not_a_counter_xyz" (Cost_model.unknown_counters ()))

let mk_engine () =
  let clock = Clock.create () in
  (clock, Engine.create ~clock ())

let task ?(klass = Task.Recompute) ~at body =
  Task.create ~klass ~func_name:"t" ~release_time:at ~created_at:at body

let test_release_and_virtual_time () =
  let clock, eng = mk_engine () in
  let seen = ref [] in
  Engine.submit eng (task ~at:2.0 (fun _ -> seen := Clock.now clock :: !seen));
  Engine.submit eng (task ~at:1.0 (fun _ -> seen := Clock.now clock :: !seen));
  Alcotest.(check int) "pending" 2 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check (list (float 1e-6))) "released in time order" [ 1.0; 2.0 ]
    (List.rev !seen);
  Alcotest.(check int) "drained" 0 (Engine.pending eng)

let test_service_time_from_meter () =
  let _, eng = mk_engine () in
  let t =
    task ~at:0.0 (fun _ ->
        Meter.tick "bs_eval";
        Meter.tick_n "fetch_cursor" 3)
  in
  Engine.submit eng t;
  Engine.run eng;
  let m = Cost_model.default in
  let expected =
    Cost_model.cost_us m "bs_eval"
    +. (3.0 *. Cost_model.cost_us m "fetch_cursor")
    +. Cost_model.cost_us m "begin_task"
    +. Cost_model.cost_us m "end_task"
    +. Cost_model.cost_us m "task_dispatch"
  in
  (* allow the tiny congestion surcharge of a single dispatch *)
  Alcotest.(check (float 0.01)) "charged" expected t.Task.service_us

let test_priority_dispatch () =
  let _, eng = mk_engine () in
  let order = ref [] in
  let log name = fun _ -> order := name :: !order in
  Engine.submit eng
    (Task.create ~klass:Task.Recompute ~func_name:"rc" ~release_time:1.0
       ~created_at:0.0 (log "rc"));
  Engine.submit eng
    (Task.create ~klass:Task.Update ~func_name:"up" ~release_time:1.0
       ~created_at:0.0 (log "up"));
  Engine.run eng;
  Alcotest.(check (list string)) "update first at equal release" [ "up"; "rc" ]
    (List.rev !order)

let test_cpu_serialization () =
  (* Two tasks released together: the second starts after the first's
     service time (single CPU). *)
  let _, eng = mk_engine () in
  let heavy _ = Meter.tick_n "bs_eval" 1000 in
  let t1 = task ~at:0.0 heavy in
  let t2 = task ~at:0.0 (fun _ -> ()) in
  Engine.submit eng t1;
  Engine.submit eng t2;
  Engine.run eng;
  Alcotest.(check bool) "t2 queued behind t1" true
    (t2.Task.dispatched_at >= t1.Task.service_us *. 1e-6 -. 1e-9);
  let stats = Engine.stats eng in
  Alcotest.(check int) "two recomputes" 2 (Stats.n_recompute stats);
  Alcotest.(check bool) "busy accumulated" true
    (Stats.busy_us stats >= t1.Task.service_us)

let test_context_switch_charge () =
  let _, eng = mk_engine () in
  Engine.set_arrival_profile eng [| 0.0; 0.05; 0.1; 0.9 |];
  (* a recompute long enough (~0.5 s) to span the arrivals at 0.05 and 0.1 *)
  let t = task ~at:0.0 (fun _ -> Meter.tick_n "bs_eval" 2000) in
  Engine.submit eng t;
  Engine.run eng;
  Alcotest.(check int) "two preemptions charged" 2
    (Stats.context_switches (Engine.stats eng));
  (* updates are never charged context switches *)
  let _, eng2 = mk_engine () in
  Engine.set_arrival_profile eng2 [| 0.05 |];
  Engine.submit eng2 (task ~klass:Task.Update ~at:0.0 (fun _ -> Meter.tick_n "bs_eval" 2000));
  Engine.run eng2;
  Alcotest.(check int) "no charge for updates" 0
    (Stats.context_switches (Engine.stats eng2))

let test_congestion_surcharge () =
  (* 200 tiny recomputes released in one second: later dispatches carry a
     quadratic congestion surcharge, so the mean exceeds an uncongested
     task's cost. *)
  let _, eng = mk_engine () in
  for i = 0 to 199 do
    Engine.submit eng (task ~at:(0.005 *. float_of_int i) (fun _ -> ()))
  done;
  Engine.run eng;
  let mean = Stats.mean_service_us (Engine.stats eng) Task.Recompute in
  let base =
    Cost_model.(
      cost_us default "begin_task" +. cost_us default "end_task"
      +. cost_us default "task_dispatch")
  in
  Alcotest.(check bool) "surcharge visible" true (mean > base +. 10.0)

let test_until_stops_releases () =
  let _, eng = mk_engine () in
  let ran = ref 0 in
  Engine.submit eng (task ~at:1.0 (fun _ -> incr ran));
  Engine.submit eng (task ~at:100.0 (fun _ -> incr ran));
  Engine.run ~until:10.0 eng;
  Alcotest.(check int) "only the due task ran" 1 !ran;
  Alcotest.(check int) "late task still pending" 1 (Engine.pending eng)

let test_stats_utilization () =
  let s = Stats.create () in
  Stats.record_task s ~klass:Task.Update ~service_us:2e6 ~queue_us:0.0;
  Stats.record_task s ~klass:Task.Recompute ~service_us:1e6 ~queue_us:5e5;
  Alcotest.(check (float 1e-9)) "utilization" 0.3 (Stats.utilization s ~duration_s:10.0);
  Alcotest.(check (float 1e-9)) "mean recompute" 1e6
    (Stats.mean_service_us s Task.Recompute);
  Alcotest.(check (float 1e-9)) "mean queue" 5e5 (Stats.mean_queue_us s Task.Recompute);
  Alcotest.(check int) "n_r" 1 (Stats.n_recompute s)

(* ---- multi-server execution with lock arbitration ---- *)

let mk_locked_db () =
  let cat = Catalog.create () in
  ignore (Sql_exec.exec_string cat ~env:[] "create table t (k int, v float)");
  ignore (Sql_exec.exec_string cat ~env:[] "insert into t values (3, 0.0)");
  cat

let read_v cat =
  match Sql_exec.exec_string cat ~env:[] "select v from t where k = 3" with
  | Sql_exec.Rows r -> (
    match Query.rows r with
    | [ [| Value.Float f |] ] -> f
    | [ [| Value.Int i |] ] -> float_of_int i
    | _ -> nan)
  | _ -> nan

(* A task that increments the contended row inside a real transaction,
   logging its task id only when the commit sticks (a parked attempt is
   undone and re-run, so it must not appear twice). *)
let writer ~cat ~locks ~clock ~log () =
  task ~at:0.0 (fun tk ->
      let txn = Transaction.begin_ ~cat ~locks ~clock () in
      (try
         ignore (Transaction.exec txn "update t set v = v + 1.0 where k = 3");
         Transaction.commit txn
       with e ->
         if Transaction.status txn = Transaction.Active then
           Transaction.abort txn;
         raise e);
      log := tk.Task.task_id :: !log)

let test_multi_server_overlap () =
  Task.reset_ids ();
  let clock = Clock.create () in
  let eng = Engine.create ~clock ~servers:2 () in
  let heavy _ = Meter.tick_n "bs_eval" 1000 in
  let t1 = task ~at:0.0 heavy in
  let t2 = task ~at:0.0 heavy in
  Engine.submit eng t1;
  Engine.submit eng t2;
  Engine.run eng;
  (* with two servers both dispatch at t=0 instead of serializing *)
  Alcotest.(check (float 1e-9)) "t1 starts at 0" 0.0 t1.Task.dispatched_at;
  Alcotest.(check (float 1e-9)) "t2 overlaps t1" 0.0 t2.Task.dispatched_at;
  let s = Engine.stats eng in
  Alcotest.(check int) "two servers" 2 (Stats.num_servers s);
  Alcotest.(check int) "one task on server 0" 1 (Stats.server_tasks s 0);
  Alcotest.(check int) "one task on server 1" 1 (Stats.server_tasks s 1)

let test_park_wake_fifo () =
  Task.reset_ids ();
  let cat = mk_locked_db () in
  let clock = Clock.create () in
  let locks = Lock.create () in
  let eng = Engine.create ~clock ~locks ~servers:2 () in
  let log = ref [] in
  let ids =
    List.init 4 (fun _ ->
        let t = writer ~cat ~locks ~clock ~log () in
        Engine.submit eng t;
        t.Task.task_id)
  in
  Engine.run eng;
  (* all conflicting writers park on the zombie holder and are woken FIFO
     by task id, so the commit order is exactly submission order *)
  Alcotest.(check (list int)) "commit order is FIFO by task id" ids
    (List.rev !log);
  (* 3 waiters wake behind txn 1, then 2 behind txn 2, then 1 behind txn 3 *)
  Alcotest.(check int) "wait episodes" 6 (Stats.n_lock_waits (Engine.stats eng));
  Alcotest.(check int) "no task left parked" 0 (Engine.parked_count eng);
  Alcotest.(check (float 1e-9)) "all four increments applied" 4.0 (read_v cat)

let test_lock_timeout_retry () =
  Task.reset_ids ();
  let cat = mk_locked_db () in
  let clock = Clock.create () in
  let locks = Lock.create () in
  let eng =
    Engine.create ~clock ~locks ~servers:2 ~lock_timeout_s:1e-9
      ~retry:Engine.default_retry ()
  in
  let log = ref [] in
  for _ = 1 to 3 do
    Engine.submit eng (writer ~cat ~locks ~clock ~log ())
  done;
  Engine.run eng;
  let s = Engine.stats eng in
  (* the third writer re-blocks after its wake; with a sub-microsecond
     timeout that is presumed deadlock and routed to retry/backoff *)
  Alcotest.(check bool) "presumed deadlock recorded" true
    (Stats.n_lock_timeouts s >= 1);
  Alcotest.(check bool) "timed-out task retried" true (Stats.n_retries s >= 1);
  Alcotest.(check int) "nothing dead-lettered" 0
    (List.length (Engine.dead_letters eng));
  Alcotest.(check (float 1e-9)) "still converges to three increments" 3.0
    (read_v cat)

(* Transparent slicing: a lock-contended 4-server workload cut at many
   [~until] horizons simulates exactly what the uncut run does — the
   same lock waits and timeouts, service histograms and makespan.  A
   horizon that flushed in-flight zombie locks would let later tasks
   skip waits the uncut run has. *)
let contended_run ~horizons =
  Task.reset_ids ();
  let cat = Catalog.create () in
  ignore (Sql_exec.exec_string cat ~env:[] "create table t (k int, v float)");
  ignore
    (Sql_exec.exec_string cat ~env:[] "insert into t values (0, 0.0), (1, 0.0)");
  let clock = Clock.create () in
  let locks = Lock.create () in
  let eng =
    Engine.create ~clock ~locks ~servers:4 ~retry:Engine.default_retry ()
  in
  for i = 0 to 39 do
    let klass = if i mod 3 = 0 then Task.Update else Task.Recompute in
    Engine.submit eng
      (task ~klass ~at:(float_of_int i *. 2e-4) (fun _ ->
           let txn = Transaction.begin_ ~cat ~locks ~clock () in
           try
             ignore
               (Transaction.exec txn
                  (Printf.sprintf "update t set v = v + 1.0 where k = %d"
                     (i mod 2)));
             Meter.tick_n "bs_eval" (1 + (i mod 4));
             Transaction.commit txn
           with e ->
             if Transaction.status txn = Transaction.Active then
               Transaction.abort txn;
             raise e))
  done;
  List.iter (fun until -> Engine.run ~until eng) horizons;
  Engine.run eng;
  let s = Engine.stats eng in
  ( (Stats.n_lock_waits s, Stats.n_lock_timeouts s),
    List.map
      (fun k -> Strip_obs.Histogram.summary (Stats.service_hist s k))
      [ Task.Update; Task.Recompute ],
    Clock.now clock )

let test_slicing_is_transparent () =
  let whole = contended_run ~horizons:[] in
  let sliced =
    contended_run ~horizons:(List.init 400 (fun i -> float_of_int i *. 5e-5))
  in
  let (waits, timeouts), hists, makespan = whole in
  Alcotest.(check bool) "the workload contends" true (waits > 0);
  let (waits', timeouts'), hists', makespan' = sliced in
  Alcotest.(check int) "lock waits" waits waits';
  Alcotest.(check int) "lock timeouts" timeouts timeouts';
  Alcotest.(check bool) "service histograms" true (hists = hists');
  Alcotest.(check (float 0.0)) "makespan" makespan makespan'

let suite =
  [
    ( "sim",
      [
        Alcotest.test_case "cost model: 172 us canonical update" `Quick
          test_cost_model_simple_update;
        Alcotest.test_case "cost model: charge/override/unknown" `Quick
          test_cost_model_charge_and_override;
        Alcotest.test_case "delayed release + virtual time" `Quick
          test_release_and_virtual_time;
        Alcotest.test_case "service time from meter deltas" `Quick
          test_service_time_from_meter;
        Alcotest.test_case "updates dispatch before recomputes" `Quick
          test_priority_dispatch;
        Alcotest.test_case "single-CPU serialization" `Quick test_cpu_serialization;
        Alcotest.test_case "context-switch surcharge" `Quick test_context_switch_charge;
        Alcotest.test_case "congestion surcharge" `Quick test_congestion_surcharge;
        Alcotest.test_case "run ~until" `Quick test_until_stops_releases;
        Alcotest.test_case "stats" `Quick test_stats_utilization;
        Alcotest.test_case "multi-server: overlapping dispatch" `Quick
          test_multi_server_overlap;
        Alcotest.test_case "multi-server: park/wake FIFO by task id" `Quick
          test_park_wake_fifo;
        Alcotest.test_case "multi-server: lock timeout routes to retry" `Quick
          test_lock_timeout_retry;
        Alcotest.test_case "multi-server: slicing at horizons is transparent"
          `Quick test_slicing_is_transparent;
      ] );
  ]
