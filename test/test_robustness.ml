(* The failure subsystem: deterministic fault injection, retry with
   exponential backoff, dead letters, unique-batch survival across
   failures, and overload shedding. *)

open Strip_relational
open Strip_txn
open Strip_core
open Strip_pta
module Engine = Strip_sim.Engine
module Stats = Strip_sim.Stats

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Fault injector *)

(* One draw per fire; [true] = injected. *)
let abort_decisions fi n =
  List.init n (fun i ->
      match Fault.fire fi ~site:Fault.Txn_abort ~txid:i ~detail:"d" with
      | () -> false
      | exception _ -> true)

let test_fault_determinism () =
  let cfg = Fault.abort_only ~seed:7 0.3 in
  let a = abort_decisions (Fault.create cfg) 200 in
  let b = abort_decisions (Fault.create cfg) 200 in
  Alcotest.(check (list bool)) "same seed, same decisions" a b;
  let fi = Fault.create cfg in
  let hits = List.filter Fun.id (abort_decisions fi 200) in
  Alcotest.(check int) "per-site count matches decisions" (List.length hits)
    (Fault.injected fi Fault.Txn_abort);
  Alcotest.(check int) "total = only active site" (List.length hits)
    (Fault.total_injected fi);
  Alcotest.(check bool) "rate 0.3 fires sometimes" true (hits <> [])

let test_fault_zero_rate_sites_consume_no_randomness () =
  let cfg = Fault.abort_only ~seed:11 0.5 in
  let plain = abort_decisions (Fault.create cfg) 100 in
  (* interleave fires at sites whose rate is 0: the abort-site decision
     sequence must be unchanged, so adding instrumentation to a new site
     cannot perturb existing runs *)
  let fi = Fault.create cfg in
  let interleaved =
    List.init 100 (fun i ->
        Fault.fire fi ~site:Fault.Lock_conflict ~txid:i ~detail:"d";
        Fault.fire fi ~site:Fault.User_fun ~txid:i ~detail:"d";
        match Fault.fire fi ~site:Fault.Txn_abort ~txid:i ~detail:"d" with
        | () -> false
        | exception _ -> true)
  in
  Alcotest.(check (list bool)) "zero-rate sites are transparent" plain
    interleaved

let test_fault_inactive () =
  let fi = Fault.create Fault.default_config in
  Alcotest.(check bool) "all-zero rates = inactive" false (Fault.active fi);
  for i = 0 to 99 do
    Fault.fire fi ~site:Fault.Deadlock ~txid:i ~detail:"d"
  done;
  Alcotest.(check int) "never fires" 0 (Fault.total_injected fi)

(* ------------------------------------------------------------------ *)
(* Engine retry / dead letters *)

let mk_engine ?retry ?overload () =
  let clock = Clock.create () in
  (clock, Engine.create ~clock ?retry ?overload ())

let test_retry_then_succeed () =
  let retry =
    { Engine.max_attempts = 5; base_backoff_s = 0.1; max_backoff_s = 10.0 }
  in
  let clock, eng = mk_engine ~retry () in
  let times = ref [] in
  let task =
    Task.create ~klass:Task.Recompute ~func_name:"flaky" ~release_time:0.0
      ~created_at:0.0 (fun t ->
        times := Clock.now clock :: !times;
        if t.Task.attempts <= 2 then failwith "transient")
  in
  Engine.submit eng task;
  Engine.run eng;
  Alcotest.(check bool) "eventually done" true (task.Task.state = Task.Done);
  Alcotest.(check int) "three attempts" 3 task.Task.attempts;
  (match List.rev !times with
  | [ t1; t2; t3 ] ->
    (* backoff doubles: >= 0.1 s after the first failure, >= 0.2 s after
       the second *)
    Alcotest.(check bool) "first backoff" true (t2 -. t1 >= 0.1);
    Alcotest.(check bool) "second backoff doubled" true (t3 -. t2 >= 0.2)
  | l -> Alcotest.failf "expected 3 dispatches, got %d" (List.length l));
  let s = Engine.stats eng in
  Alcotest.(check int) "aborts" 2 (Stats.n_aborts s);
  Alcotest.(check int) "retries" 2 (Stats.n_retries s);
  Alcotest.(check int) "no dead letters" 0 (Stats.n_dead_letters s);
  Alcotest.(check int) "one recovery" 1 (Stats.n_recoveries s);
  Alcotest.(check bool) "recovery latency spans the backoffs" true
    (Stats.mean_recovery_s s >= 0.3)

let test_dead_letter_after_budget () =
  let retry =
    { Engine.max_attempts = 3; base_backoff_s = 0.01; max_backoff_s = 1.0 }
  in
  let _, eng = mk_engine ~retry () in
  let task =
    Task.create ~klass:Task.Recompute ~func_name:"doomed" ~release_time:0.0
      ~created_at:0.0 (fun _ -> failwith "always")
  in
  Engine.submit eng task;
  Engine.run eng;
  (* run returns: exhausting the budget must not propagate the failure *)
  Alcotest.(check int) "attempts = budget" 3 task.Task.attempts;
  Alcotest.(check bool) "discarded" true (task.Task.state = Task.Cancelled);
  (match Engine.dead_letters eng with
  | [ t ] -> Alcotest.(check string) "the task" "doomed" t.Task.func_name
  | l -> Alcotest.failf "expected 1 dead letter, got %d" (List.length l));
  let s = Engine.stats eng in
  Alcotest.(check int) "aborts" 3 (Stats.n_aborts s);
  Alcotest.(check int) "retries" 2 (Stats.n_retries s);
  Alcotest.(check int) "dead letters" 1 (Stats.n_dead_letters s)

let test_fatal_errors_not_retried () =
  let _, eng = mk_engine ~retry:Engine.default_retry () in
  Engine.set_fatal_filter eng (function Failure _ -> true | _ -> false);
  let task =
    Task.create ~klass:Task.Recompute ~func_name:"broken" ~release_time:0.0
      ~created_at:0.0 (fun _ -> failwith "programming error")
  in
  Engine.submit eng task;
  (match Engine.run eng with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "fatal error should propagate");
  Alcotest.(check int) "no retries" 0 (Stats.n_retries (Engine.stats eng));
  Alcotest.(check bool) "discarded, not dead-lettered" true
    (task.Task.state = Task.Cancelled && Engine.dead_letters eng = [])

(* ------------------------------------------------------------------ *)
(* Overload shedding *)

let test_overload_sheds_worst_victims () =
  let clock = Clock.create ~now:10.0 () in
  let eng =
    Engine.create ~clock
      ~overload:{ Engine.high_watermark = 2; shed_policy = Engine.Drop }
      ()
  in
  let ran = ref [] in
  let mk ?deadline ~value name =
    Task.create ~klass:Task.Recompute ~func_name:name ?deadline ~value
      ~release_time:11.0 ~created_at:10.0 (fun t ->
        ran := t.Task.func_name :: !ran)
  in
  let t1 = mk ~value:5.0 "t1" in
  let t2 = mk ~value:4.0 "t2" in
  let t3 = mk ~value:3.0 "t3" in
  let t4 = mk ~deadline:5.0 ~value:100.0 "t4" (* deadline already expired *) in
  let t5 = mk ~value:0.5 "t5" in
  Engine.submit eng t1;
  Engine.submit eng t2;
  Alcotest.(check int) "under watermark, nothing shed" 0
    (Stats.n_sheds (Engine.stats eng));
  Engine.submit eng t3;
  (* 3 live > watermark 2: lowest-value victim goes (t2), never the
     incoming task *)
  Alcotest.(check bool) "t2 shed" true (t2.Task.state = Task.Cancelled);
  Alcotest.(check bool) "t3 kept" true (t3.Task.state = Task.Pending);
  Engine.submit eng t4;
  (* t3 is now the cheapest live victim *)
  Alcotest.(check bool) "t3 shed" true (t3.Task.state = Task.Cancelled);
  Engine.submit eng t5;
  (* expired deadline outranks even the highest value *)
  Alcotest.(check bool) "expired t4 shed first" true
    (t4.Task.state = Task.Cancelled);
  Alcotest.(check int) "every shed counted" 3 (Stats.n_sheds (Engine.stats eng));
  Alcotest.(check int) "backlog back at watermark" 2 (Engine.backlog eng);
  Engine.run eng;
  Alcotest.(check (list string)) "engine stays live for survivors"
    [ "t1"; "t5" ] (List.rev !ran)

let test_overload_coalesce_absorbs_rows () =
  let clock = Clock.create () in
  let eng =
    Engine.create ~clock
      ~overload:{ Engine.high_watermark = 1; shed_policy = Engine.Coalesce }
      ()
  in
  let schema = Schema.of_list [ ("x", Value.TInt) ] in
  let mk rows =
    let tmp = Temp_table.create_materialized ~name:"b" ~schema in
    List.iter (fun v -> Temp_table.append_values tmp [| Value.Int v |]) rows;
    ( tmp,
      Task.create ~klass:Task.Recompute ~func_name:"f" ~bound:[ ("b", tmp) ]
        ~release_time:5.0 ~created_at:0.0 (fun _ -> ()) )
  in
  let tmp_a, t_a = mk [ 1; 2 ] in
  let tmp_b, t_b = mk [ 3 ] in
  Engine.submit eng t_a;
  Engine.submit eng t_b;
  Alcotest.(check bool) "victim cancelled" true (t_a.Task.state = Task.Cancelled);
  Alcotest.(check bool) "victim's table retired" true (Temp_table.retired tmp_a);
  Alcotest.(check int) "rows folded into the survivor" 3
    (Temp_table.cardinal tmp_b);
  let s = Engine.stats eng in
  Alcotest.(check int) "shed counted" 1 (Stats.n_sheds s);
  Alcotest.(check int) "as a coalesce" 1 (Stats.n_coalesced s);
  Engine.run eng;
  Alcotest.(check bool) "survivor ran" true (t_b.Task.state = Task.Done)

(* Overload sheds rule tasks only: a checkpoint, a scheduled crash or a
   scrub pass waiting in the delay queue is the system's own work, and
   shedding it silently drops durability or a fault schedule. *)
let test_overload_never_sheds_background () =
  let clock = Clock.create () in
  let eng =
    Engine.create ~clock
      ~overload:{ Engine.high_watermark = 1; shed_policy = Engine.Drop }
      ()
  in
  let ran = ref [] in
  let mk klass name =
    Task.create ~klass ~func_name:name ~release_time:5.0 ~created_at:0.0
      (fun t -> ran := t.Task.func_name :: !ran)
  in
  let checkpoint = mk Task.Background "checkpoint" in
  let crash = mk Task.Background "crash" in
  let r1 = mk Task.Recompute "r1" and r2 = mk Task.Recompute "r2" in
  List.iter (Engine.submit eng) [ checkpoint; crash; r1 ];
  Alcotest.(check int) "background tasks are no backlog" 1 (Engine.backlog eng);
  Alcotest.(check int) "nothing shed at the watermark" 0
    (Stats.n_sheds (Engine.stats eng));
  Engine.submit eng r2;
  Alcotest.(check bool) "the older rule task is shed" true
    (r1.Task.state = Task.Cancelled);
  Alcotest.(check int) "one shed" 1 (Stats.n_sheds (Engine.stats eng));
  Engine.run eng;
  Alcotest.(check (list string)) "background tasks all ran"
    [ "checkpoint"; "crash"; "r2" ]
    (List.sort compare !ran)

(* A TCB rebuilt by crash recovery is fully materialized, and a live
   pointer TCB of the same rule cannot absorb it: the shed path drops
   such a victim instead of coalescing it into a layout mismatch. *)
let test_coalesce_refuses_recovered_victim () =
  let clock = Clock.create () in
  let eng =
    Engine.create ~clock
      ~overload:{ Engine.high_watermark = 1; shed_policy = Engine.Coalesce }
      ()
  in
  let schema = Schema.of_list [ ("k", Value.TInt); ("v", Value.TFloat) ] in
  let recovered = Temp_table.create_materialized ~name:"b1" ~schema in
  Temp_table.append_values recovered [| Value.Int 1; Value.Float 1.0 |];
  let live =
    Temp_table.create ~name:"b1" ~schema ~nslots:1
      ~prov:[| Temp_table.From_record (0, 0); Temp_table.From_record (0, 1) |]
  in
  Temp_table.append live
    ~srcs:[| Record.create [| Value.Int 2; Value.Float 2.0 |] |]
    ~mats:[||];
  Alcotest.(check bool) "absorb would refuse the pair" false
    (Temp_table.can_absorb live recovered);
  Alcotest.(check bool) "the reverse pair is absorbable" true
    (Temp_table.can_absorb recovered live);
  let mk bound =
    Task.create ~klass:Task.Recompute ~func_name:"f" ~bound:[ ("b1", bound) ]
      ~release_time:5.0 ~created_at:0.0 (fun _ -> ())
  in
  let victim = mk recovered and incoming = mk live in
  Engine.submit eng victim;
  Engine.submit eng incoming;
  let s = Engine.stats eng in
  Alcotest.(check bool) "victim shed" true (victim.Task.state = Task.Cancelled);
  Alcotest.(check int) "one shed" 1 (Stats.n_sheds s);
  Alcotest.(check int) "dropped, not coalesced" 0 (Stats.n_coalesced s);
  Alcotest.(check int) "the live TCB kept only its own row" 1
    (Temp_table.cardinal live);
  Engine.run eng;
  Alcotest.(check bool) "survivor ran" true (incoming.Task.state = Task.Done)

(* ------------------------------------------------------------------ *)
(* Unique batching across failures (the Figure 4/5 example, with the
   user function failing transiently on its first dispatch). *)

let setup_figure4 ~retry () =
  let db = Strip_db.create ~retry () in
  Strip_db.exec_script db
    {|create table stocks (symbol string, price float);
      create index stocks_sym on stocks (symbol);
      create table comps_list (comp string, symbol string, weight float);
      create index cl_sym on comps_list (symbol);
      create table comp_prices (comp string, price float);
      create index cp_comp on comp_prices (comp);
      insert into stocks values ('S1', 30.0), ('S2', 40.0), ('S3', 50.0);
      insert into comps_list values
        ('C1','S1',0.5), ('C1','S3',0.5), ('C2','S1',0.3), ('C2','S2',0.7);
      insert into comp_prices values ('C1', 40.0), ('C2', 37.0)|};
  db

let condition =
  {|select comp, comps_list.symbol as symbol, weight,
           old.price as old_price, new.price as new_price
    from comps_list, new, old
    where comps_list.symbol = new.symbol
      and new.execute_order = old.execute_order
    bind as matches|}

let test_unique_batch_survives_failure () =
  let retry =
    { Engine.max_attempts = 5; base_backoff_s = 0.2; max_backoff_s = 2.0 }
  in
  let db = setup_figure4 ~retry () in
  let calls = ref 0 and batch_rows = ref 0 in
  Strip_db.register_function db "f" (fun ctx ->
      incr calls;
      if !calls = 1 then failwith "transient";
      let r =
        Transaction.query ctx.Rule_manager.txn
          "select comp, sum((new_price - old_price) * weight) as diff from \
           matches group by comp"
      in
      batch_rows :=
        Query.row_count
          (Transaction.query ctx.Rule_manager.txn "select comp from matches");
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
       condition);
  (* T1 and T2 fire before the action's release (normal merging); T3 fires
     while the failed action waits out its backoff, so it only reaches the
     batch if the retried task was re-registered in the unique hash. *)
  Strip_db.submit_update db ~at:0.0 (fun txn ->
      ignore (Transaction.exec txn "update stocks set price = 31.0 where symbol = 'S1'");
      ignore (Transaction.exec txn "update stocks set price = 39.0 where symbol = 'S2'"));
  Strip_db.submit_update db ~at:0.3 (fun txn ->
      ignore (Transaction.exec txn "update stocks set price = 38.0 where symbol = 'S2'");
      ignore (Transaction.exec txn "update stocks set price = 51.0 where symbol = 'S3'"));
  Strip_db.submit_update db ~at:1.05 (fun txn ->
      ignore (Transaction.exec txn "update stocks set price = 32.0 where symbol = 'S1'"));
  Strip_db.run db;
  let mgr = Strip_db.rules db in
  Alcotest.(check int) "one unique transaction" 1 (Rule_manager.n_tasks_created mgr);
  Alcotest.(check int) "T2 merged pre-failure, T3 during backoff" 2
    (Rule_manager.n_merges mgr);
  Alcotest.(check int) "failed once, succeeded once" 2 !calls;
  Alcotest.(check int) "all three transactions' rows in the batch" 7 !batch_rows;
  let s = Strip_db.stats db in
  Alcotest.(check int) "abort recorded" 1 (Stats.n_aborts s);
  Alcotest.(check int) "retry recorded" 1 (Stats.n_retries s);
  Alcotest.(check int) "recovered" 1 (Stats.n_recoveries s);
  Alcotest.(check (list (pair string (float 1e-9))))
    "view caught up: nothing lost, nothing doubled"
    [ ("C1", 41.5); ("C2", 36.2) ]
    (List.map
       (fun row -> (Value.to_string row.(0), Value.to_float row.(1)))
       (Strip_db.query_rows db "select comp, price from comp_prices order by comp"))

let test_rule_error_is_fatal_in_db () =
  (* An unregistered user function is a programming error: even with retry
     on, it must fail fast instead of burning the retry budget. *)
  let db = setup_figure4 ~retry:Engine.default_retry () in
  Strip_db.create_rule db
    (Printf.sprintf
       "create rule r on stocks when updated price if %s then execute nosuch"
       condition);
  Strip_db.submit_update db ~at:0.0 (fun txn ->
      ignore (Transaction.exec txn "update stocks set price = 31.0 where symbol = 'S1'"));
  (match Strip_db.run db with
  | exception Rule_manager.Rule_error _ -> ()
  | () -> Alcotest.fail "missing user function should propagate");
  Alcotest.(check int) "not retried" 0 (Stats.n_retries (Strip_db.stats db))

(* ------------------------------------------------------------------ *)
(* Injected aborts through Strip_db *)

let test_injected_aborts_dead_letter_when_budget_exhausted () =
  let db =
    Strip_db.create
      ~fault:(Fault.abort_only ~seed:3 1.0) (* every commit aborts *)
      ~retry:{ Engine.max_attempts = 2; base_backoff_s = 0.01; max_backoff_s = 1.0 }
      ()
  in
  Strip_db.exec db "create table t (k int)" |> ignore;
  Strip_db.submit_update db ~at:0.0 ~label:"doomed" (fun txn ->
      ignore (Transaction.exec txn "insert into t values (1)"));
  Strip_db.run db;
  Alcotest.(check int) "dead-lettered, not lost silently" 1
    (List.length (Engine.dead_letters (Strip_db.engine db)));
  Alcotest.(check int) "both attempts aborted" 2
    (Stats.n_aborts (Strip_db.stats db));
  Alcotest.(check (list (list string))) "no effect survived the aborts" []
    (List.map
       (fun r -> Array.to_list (Array.map Value.to_string r))
       (Strip_db.query_rows db "select k from t"));
  match Strip_db.fault_injector db with
  | Some fi -> Alcotest.(check int) "injections counted" 2 (Fault.total_injected fi)
  | None -> Alcotest.fail "injector not installed"

let test_experiment_converges_under_faults () =
  let cfg =
    Experiment.default_config
      (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:0.5
  in
  let cfg = Experiment.quick cfg 0.02 in
  let cfg = Experiment.with_faults ~seed:7 ~abort_rate:0.15 cfg in
  let m = Experiment.run cfg in
  Alcotest.(check bool) "faults were injected" true
    (Report.count m.Experiment.registry "faults_injected_total" > 0);
  Alcotest.(check int) "every abort retried or dead-lettered"
    m.Experiment.n_aborts
    (m.Experiment.n_retries + m.Experiment.n_dead_letters);
  Alcotest.(check (option bool)) "maintained view converged" (Some true)
    m.Experiment.verified

(* ------------------------------------------------------------------ *)
(* Script errors *)

let test_script_error_reports_statement () =
  let db = Strip_db.create () in
  (match
     Strip_db.exec_script db
       {|create table t (k int);
         insert into t values (1);
         insert into nosuch values (2);
         insert into t values (3)|}
   with
  | exception Strip_db.Script_error { index; source; cause = _ } ->
    Alcotest.(check int) "failing statement index" 3 index;
    Alcotest.(check bool) "source text reconstructed" true
      (contains source "nosuch")
  | () -> Alcotest.fail "bad statement should raise Script_error");
  (* earlier statements committed, the failing one aborted cleanly, and the
     database stays usable *)
  Alcotest.(check int) "prefix committed" 1
    (List.length (Strip_db.query_rows db "select k from t"));
  Strip_db.exec db "insert into t values (4)" |> ignore;
  Alcotest.(check int) "still usable" 2
    (List.length (Strip_db.query_rows db "select k from t"))

let suite =
  [
    ( "robustness",
      [
        Alcotest.test_case "fault injection is deterministic" `Quick
          test_fault_determinism;
        Alcotest.test_case "zero-rate sites consume no randomness" `Quick
          test_fault_zero_rate_sites_consume_no_randomness;
        Alcotest.test_case "inactive injector never fires" `Quick
          test_fault_inactive;
        Alcotest.test_case "retry with exponential backoff" `Quick
          test_retry_then_succeed;
        Alcotest.test_case "dead letter after budget" `Quick
          test_dead_letter_after_budget;
        Alcotest.test_case "fatal errors not retried" `Quick
          test_fatal_errors_not_retried;
        Alcotest.test_case "overload sheds worst victims" `Quick
          test_overload_sheds_worst_victims;
        Alcotest.test_case "coalesce shed absorbs rows" `Quick
          test_overload_coalesce_absorbs_rows;
        Alcotest.test_case "overload never sheds background tasks" `Quick
          test_overload_never_sheds_background;
        Alcotest.test_case "coalesce refuses a recovered victim" `Quick
          test_coalesce_refuses_recovered_victim;
        Alcotest.test_case "unique batch survives failure" `Quick
          test_unique_batch_survives_failure;
        Alcotest.test_case "rule errors fail fast" `Quick
          test_rule_error_is_fatal_in_db;
        Alcotest.test_case "injected aborts dead-letter" `Quick
          test_injected_aborts_dead_letter_when_budget_exhausted;
        Alcotest.test_case "experiment converges under faults" `Slow
          test_experiment_converges_under_faults;
        Alcotest.test_case "script errors name the statement" `Quick
          test_script_error_reports_statement;
      ] );
  ]
