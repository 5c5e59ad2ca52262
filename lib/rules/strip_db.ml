open Strip_relational
open Strip_txn
open Strip_sim
module Metrics = Strip_obs.Metrics

type t = {
  cat : Catalog.t;
  lcks : Lock.t;
  clk : Clock.t;
  mgr : Rule_manager.t;
  eng : Engine.t;
  fi : Fault.t option;
  dur : Durable.t option;
  reg : Metrics.t;
  tracer : Strip_obs.Trace.t option;
  slo : Strip_obs.Slo.t option;
  prov : Strip_obs.Provenance.t option;
  mutable views : (string * Sql_parser.select_ast) list;  (* newest first *)
  mutable view_sql : (string * string) list;  (* newest first *)
  cp_cache : Checkpoint.cache;  (* table segments of the last image *)
}

(* Register every component's counters, gauges and distributions into one
   registry — the single snapshot surface for the CLI/bench exporters.
   Sources that already maintain their own state are wired as probes
   (polled at snapshot time), so nothing is double-counted. *)
let recovery_work_row kind =
  "recovery_" ^ Stats.recovery_work_name kind ^ "_total"

let register_metrics reg ~stats ~mgr ~eng ~clk ~tracer ~dur ~slo ~prov =
  let open Strip_sim in
  List.iter
    (fun (label, klass) ->
      let labels = [ ("class", label) ] in
      Metrics.probe_int reg "tasks_total" ~labels (fun () ->
          Stats.tasks_run stats klass);
      Metrics.probe_float reg "busy_us_total" ~labels (fun () ->
          Stats.busy_us_of stats klass);
      Metrics.probe_hist reg "service_us" ~labels (fun () ->
          Stats.service_hist stats klass);
      Metrics.probe_hist reg "queue_wait_us" ~labels (fun () ->
          Stats.queue_hist stats klass))
    [
      ("update", Task.Update);
      ("recompute", Task.Recompute);
      ("background", Task.Background);
    ];
  Metrics.probe_int reg "context_switches_total" (fun () ->
      Stats.context_switches stats);
  Metrics.probe_int reg "aborts_total" (fun () -> Stats.n_aborts stats);
  Metrics.probe_int reg "retries_total" (fun () -> Stats.n_retries stats);
  Metrics.probe_int reg "sheds_total" (fun () -> Stats.n_sheds stats);
  Metrics.probe_int reg "coalesced_total" (fun () -> Stats.n_coalesced stats);
  Metrics.probe_int reg "dead_letters_total" (fun () ->
      Stats.n_dead_letters stats);
  Metrics.probe_int reg "recoveries_total" (fun () -> Stats.n_recoveries stats);
  Metrics.probe_hist reg "recovery_latency_s" (fun () ->
      Stats.recovery_hist stats);
  Metrics.probe_family reg "staleness_s" (fun () ->
      List.map
        (fun table ->
          ( [ ("table", table) ],
            Metrics.Sample_hist (Stats.staleness_hist stats table) ))
        (Stats.staleness_tables stats));
  Metrics.probe_int reg "rule_firings_total" (fun () ->
      Rule_manager.n_rule_firings mgr);
  Metrics.probe_int reg "rule_tasks_created_total" (fun () ->
      Rule_manager.n_tasks_created mgr);
  Metrics.probe_int reg "rule_merges_total" (fun () ->
      Rule_manager.n_merges mgr);
  Metrics.probe_int reg "unique_queued" (fun () ->
      Unique.queued (Rule_manager.registry mgr));
  Metrics.probe_int reg "ready_queue_length" (fun () -> Engine.ready_length eng);
  Metrics.probe_int reg "delay_queue_length" (fun () ->
      Engine.delayed_length eng);
  Metrics.probe_int reg "engine_backlog" (fun () -> Engine.backlog eng);
  Metrics.probe_int reg "servers" (fun () -> Engine.num_servers eng);
  Metrics.probe_int reg "parked_tasks" (fun () -> Engine.parked_count eng);
  Metrics.probe_int reg "lock_waits_total" (fun () -> Stats.n_lock_waits stats);
  Metrics.probe_int reg "lock_timeouts_total" (fun () ->
      Stats.n_lock_timeouts stats);
  Metrics.probe_hist reg "lock_wait_s" (fun () -> Stats.lock_wait_hist stats);
  Metrics.probe_family reg "server_busy_us" (fun () ->
      List.init (Stats.num_servers stats) (fun i ->
          ( [ ("server", string_of_int i) ],
            Metrics.Sample_float (Stats.server_busy_us stats i) )));
  Metrics.probe_float reg "sim_now_s" (fun () -> Clock.now clk);
  Metrics.probe_int reg "faults_injected_total" (fun () ->
      Stats.n_injected stats);
  (* Durability metrics exist only when the layer is wired, so crash-free
     (non-durable) registry snapshots stay byte-identical to older runs. *)
  (match dur with
  | None -> ()
  | Some d ->
    let w = Durable.wal d in
    Metrics.probe_int reg "wal_appends_total" (fun () -> Wal.n_appends w);
    Metrics.probe_int reg "wal_fsyncs_total" (fun () -> Wal.n_fsyncs w);
    Metrics.probe_int reg "wal_durable_bytes" (fun () -> Wal.durable_bytes w);
    Metrics.probe_int reg "wal_appended_bytes_total" (fun () ->
        Wal.appended_bytes w);
    Metrics.probe_int reg "wal_truncations_total" (fun () ->
        Wal.n_truncations w);
    Metrics.probe_int reg "wal_pending_bytes" (fun () -> Wal.pending_bytes w);
    Metrics.probe_int reg "wal_base_lsn" (fun () -> Wal.base_lsn w);
    Metrics.probe_int reg "wal_durable_end_lsn" (fun () -> Wal.durable_end w);
    Metrics.probe_int reg "checkpoints_total" (fun () ->
        Durable.n_checkpoints d);
    Metrics.probe_int reg "checkpoint_bytes" (fun () ->
        Durable.last_checkpoint_bytes d);
    Metrics.probe_int reg "crashes_total" (fun () -> Stats.n_crashes stats);
    Metrics.probe_hist reg "crash_recovery_s" (fun () ->
        Stats.crash_recovery_hist stats);
    Metrics.probe_int reg "failovers_total" (fun () ->
        Stats.n_failovers stats);
    List.iter
      (fun kind ->
        Metrics.probe_int reg (recovery_work_row kind) (fun () ->
            Stats.recovery_work stats kind))
      Stats.recovery_work_kinds;
    (* Media-fault surfaces appear only when storage-fault injection is
       armed, keeping fault-free registry snapshots byte-identical. *)
    if Durable.media_armed d then begin
      Metrics.probe_int reg "media_faults_injected_total" (fun () ->
          let c = Durable.media_counts d in
          c.Durable.injected_bitrot_wal + c.Durable.injected_bitrot_cp
          + c.Durable.injected_fsync_lie);
      Metrics.probe_int reg "media_faults_outstanding" (fun () ->
          Durable.outstanding d);
      Metrics.probe_int reg "media_faults_repaired_total" (fun () ->
          (Durable.media_counts d).Durable.repaired);
      Metrics.probe_int reg "media_faults_quarantined_total" (fun () ->
          (Durable.media_counts d).Durable.quarantined);
      Metrics.probe_int reg "wal_disk_fulls_total" (fun () ->
          Wal.n_disk_fulls w);
      Metrics.probe_int reg "wal_lied_bytes_total" (fun () -> Wal.lied_bytes w)
    end);
  (match tracer with
  | None -> ()
  | Some tr ->
    Metrics.probe_int reg "trace_events_buffered" (fun () ->
        Strip_obs.Trace.length tr);
    Metrics.probe_int reg "trace_dropped_total" (fun () ->
        Strip_obs.Trace.dropped tr));
  (* SLO and provenance surfaces are opt-in like the durability ones, so
     runs without them snapshot byte-identically to earlier releases. *)
  (match slo with
  | None -> ()
  | Some s ->
    Metrics.probe_family reg "slo_violations_total" (fun () ->
        List.map
          (fun (r : Strip_obs.Slo.view_report) ->
            ( [ ("view", r.Strip_obs.Slo.r_view) ],
              Metrics.Sample_int r.Strip_obs.Slo.r_violations ))
          (Strip_obs.Slo.report s));
    Metrics.probe_family reg "slo_windows_total" (fun () ->
        List.map
          (fun (r : Strip_obs.Slo.view_report) ->
            ( [ ("view", r.Strip_obs.Slo.r_view) ],
              Metrics.Sample_int r.Strip_obs.Slo.r_windows ))
          (Strip_obs.Slo.report s)));
  match prov with
  | None -> ()
  | Some p ->
    Metrics.probe_int reg "provenance_recorded_total" (fun () ->
        Strip_obs.Provenance.total p);
    Metrics.probe_int reg "provenance_truncated_total" (fun () ->
        Strip_obs.Provenance.truncated p)

let create ?policy ?cost ?now ?fault ?durable ?retry ?overload ?servers
    ?lock_timeout_s ?trace ?slo ?provenance ?stats () =
  let cat = Catalog.create () in
  let lcks = Lock.create () in
  let clk = Clock.create ?now () in
  let stats =
    match stats with Some st -> st | None -> Stats.create ?servers ()
  in
  let fi =
    Option.map
      (Fault.create ~on_inject:(fun () -> Stats.record_injected stats))
      fault
  in
  let mgr =
    Rule_manager.create ~cat ~locks:lcks ~clock:clk ~stats ?fault:fi ?durable
      ?trace ?provenance ()
  in
  let eng =
    Engine.create ~clock:clk ?policy ?cost ?retry ?overload ~locks:lcks
      ?servers ?lock_timeout_s ?trace ~stats ()
  in
  Rule_manager.set_submitter mgr (Engine.submit eng);
  (* Failure wiring: retried unique transactions re-enter the registry so
     merges continue through their backoff; rule-definition errors are
     programming errors, not transient faults, and must not be retried.
     (A crash or partition always propagates to the recovery driver.) *)
  Engine.set_requeue_hook eng (Rule_manager.reregister_task mgr);
  Engine.set_shed_hook eng (Rule_manager.log_shed mgr);
  Engine.set_fatal_filter eng (function
    | Rule_manager.Rule_error _ -> true
    | _ -> false);
  (* Staleness sampling (paper §7): when a rule action commits, every table
     it wrote has just caught up with base changes first fired at the
     task's creation; the age of that oldest change is the sample. *)
  Rule_manager.set_commit_hook mgr (fun ~task ~tables ~now ->
      match task.Task.klass with
      | Task.Update -> ()
      | Task.Recompute | Task.Background ->
        List.iter
          (fun table ->
            let seconds = Float.max 0.0 (now -. task.Task.created_at) in
            Stats.record_staleness stats ~table ~seconds;
            match slo with
            | None -> ()
            | Some s ->
              Strip_obs.Slo.observe s ~view:table ~staleness_s:seconds ~now)
          tables);
  let reg = Metrics.create () in
  register_metrics reg ~stats ~mgr ~eng ~clk ~tracer:trace ~dur:durable
    ~slo ~prov:provenance;
  {
    cat;
    lcks;
    clk;
    mgr;
    eng;
    fi;
    dur = durable;
    reg;
    tracer = trace;
    slo;
    prov = provenance;
    views = [];
    view_sql = [];
    cp_cache = Checkpoint.create_cache ();
  }

let catalog t = t.cat
let clock t = t.clk
let locks t = t.lcks
let rules t = t.mgr
let engine t = t.eng
let fault_injector t = t.fi
let durable t = t.dur
let metrics t = t.reg
let trace t = t.tracer
let slo t = t.slo
let provenance t = t.prov
let now t = Clock.now t.clk

(* A direct transaction settles zombie holders first (no-op in a body). *)
let with_txn t f =
  Engine.settle t.eng;
  let txn = Transaction.begin_ ~cat:t.cat ~locks:t.lcks ~clock:t.clk () in
  match f txn with
  | v ->
    if Transaction.status txn = Transaction.Active then
      Rule_manager.commit_txn t.mgr txn;
    v
  | exception e ->
    if Transaction.status txn = Transaction.Active then Transaction.abort txn;
    Rule_manager.clear_partials t.mgr;
    raise e

(* Task-body variant of [with_txn]: consults the fault injector between the
   work and the commit, so update tasks see the same abort / lock-conflict
   failure modes as rule actions (and the engine's retry policy recovers
   both).  Direct [exec]/[query] calls are not injected — they have no
   retry layer above them. *)
let with_txn_injected t ~detail f =
  with_txn t (fun txn ->
      let v = f txn in
      (match t.fi with
      | None -> ()
      | Some fi ->
        let txid = Transaction.txid txn in
        Fault.fire fi ~site:Fault.Lock_conflict ~txid ~detail;
        Fault.fire fi ~site:Fault.Deadlock ~txid ~detail;
        Fault.fire fi ~site:Fault.Txn_abort ~txid ~detail;
        Fault.fire fi ~site:Fault.Crash ~txid ~detail;
        Fault.fire fi ~site:Fault.Partition ~txid ~detail);
      v)

let on_view t name ast = t.views <- (name, ast) :: t.views

let view_definitions t = List.rev t.views

let view_sql t = List.rev t.view_sql

(* Record a view's definition (AST for the auditor, SQL for checkpoints)
   without touching the catalog — recovery uses this after restoring the
   already-materialized view table from a checkpoint image. *)
let register_view_def t ~sql =
  match Sql_parser.parse_statement sql with
  | Sql_parser.Create_view { name; select } ->
    on_view t name select;
    t.view_sql <- (name, sql) :: t.view_sql
  | _ -> invalid_arg "Strip_db.register_view_def: not a CREATE VIEW"

(* Populate-time view creation: execute the CREATE VIEW raw (outside any
   transaction, exactly as the PTA schema setup always has) and remember
   its definition for audits and checkpoints. *)
let declare_view t ~sql =
  match Sql_parser.parse_statement sql with
  | Sql_parser.Create_view { name; _ } ->
    ignore (Sql_exec.exec_string t.cat ~env:[] ~on_view:(on_view t) sql);
    t.view_sql <- (name, sql) :: t.view_sql
  | _ -> invalid_arg "Strip_db.declare_view: not a CREATE VIEW"

let exec_parsed t stmt =
  with_txn t (fun txn ->
      match stmt with
      | Sql_parser.Create_view _ ->
        (* run unhooked-for-views path through Sql_exec to capture the
           definition, but inside the transaction for locking/logging *)
        Sql_exec.exec ~hooks:(Transaction.hooks txn) ~on_view:(on_view t)
          t.cat ~env:[] stmt
      | stmt -> Transaction.exec_stmt txn stmt)

let is_drop_rule s =
  match Sql_lexer.tokenize s with
  | toks when Array.length toks > 2 -> (
    match (toks.(0), toks.(1)) with
    | Sql_lexer.Ident a, Sql_lexer.Ident b ->
      String.lowercase_ascii a = "drop" && String.lowercase_ascii b = "rule"
    | _ -> false)
  | _ | (exception Sql_lexer.Lex_error _) -> false

let exec t s =
  if Rule_parser.is_rule_ddl s then begin
    Rule_manager.create_rule_text t.mgr s;
    Sql_exec.Unit
  end
  else if is_drop_rule s then begin
    let c = Sql_parser.cursor_of_string s in
    Sql_parser.expect_kw c "drop";
    Sql_parser.expect_kw c "rule";
    Rule_manager.drop_rule t.mgr (Sql_parser.expect_ident c);
    Sql_exec.Unit
  end
  else exec_parsed t (Sql_parser.parse_statement s)

exception Script_error of { index : int; source : string; cause : exn }

let () =
  Printexc.register_printer (function
    | Script_error { index; source; cause } ->
      Some
        (Printf.sprintf "Strip_db.Script_error(statement %d: `%s`: %s)" index
           source (Printexc.to_string cause))
    | _ -> None)

(* The offending statement's tokens, from [start] to the next [;] or EOF. *)
let statement_source c start =
  Sql_parser.restore c start;
  let buf = Buffer.create 64 in
  while
    (not (Sql_parser.at_eof c)) && Sql_parser.peek c <> Sql_lexer.Semi
  do
    if Buffer.length buf > 0 then Buffer.add_char buf ' ';
    Buffer.add_string buf (Sql_lexer.token_to_string (Sql_parser.peek c));
    Sql_parser.advance c
  done;
  Buffer.contents buf

let exec_script t s =
  let c = Sql_parser.cursor_of_string s in
  let index = ref 0 in
  while not (Sql_parser.at_eof c) do
    incr index;
    (* route on the leading tokens: [create rule ...] vs plain SQL *)
    let pos = Sql_parser.save c in
    (try
       let is_rule =
         Sql_parser.accept_kw c "create" && Sql_parser.accept_kw c "rule"
       in
       Sql_parser.restore c pos;
       if is_rule then Rule_manager.create_rule t.mgr (Rule_parser.parse_at c)
       else ignore (exec_parsed t (Sql_parser.parse_statement_at c))
     with e ->
       (* the statement's transaction was already aborted by [with_txn];
          report which statement failed and with what *)
       raise (Script_error { index = !index; source = statement_source c pos; cause = e }));
    while Sql_parser.peek c = Sql_lexer.Semi do
      Sql_parser.advance c
    done
  done

let query t s = with_txn t (fun txn -> Transaction.query txn s)

let query_rows t s = Query.rows (query t s)

let register_function t name fn = Rule_manager.register_function t.mgr name fn

let create_rule t s = Rule_manager.create_rule_text t.mgr s

(* A transaction task: the rule manager parents any firings under the
   task's span context, and the body runs fault-injected. *)
let submit_txn t ~klass ~label ~ctx ~at f =
  Engine.submit t.eng
    (Task.create ~klass ~func_name:label ?ctx ~release_time:at ~created_at:at
       (fun task ->
         Rule_manager.set_current_ctx t.mgr task.Task.ctx;
         Fun.protect
           ~finally:(fun () -> Rule_manager.set_current_ctx t.mgr None)
           (fun () -> with_txn_injected t ~detail:label f)))

let submit_update t ~at ?(label = "update") f =
  (* Base-update ingestion is where a causal story begins: mint a root
     trace context here (tracing on only) and let it ride the task
     through dispatch, rule firings, WAL commit, shipping and apply. *)
  let ctx =
    match t.tracer with None -> None | Some _ -> Some (Strip_obs.Span.mint ())
  in
  submit_txn t ~klass:Task.Update ~label ~ctx ~at f

(* Recompute-class variant for the shard coordinator: the task that
   applies a merged cross-shard partial delta is maintenance work, not
   base ingestion, so it is scheduled and accounted like a rule action.
   [ctx] (when the shipping partial carried one) keeps the cross-shard
   span tree connected instead of minting a fresh root. *)
let submit_maintenance t ~at ?(label = "shard_apply") ?ctx f =
  let ctx = match t.tracer with None -> None | Some _ -> ctx in
  submit_txn t ~klass:Task.Recompute ~label ~ctx ~at f

(* ------------------------------------------------------------------ *)
(* Background tasks: every one-shot and periodic task the system runs
   beside rule transactions is built here. *)

let at t ~label ~at f =
  Engine.submit t.eng
    (Task.create ~klass:Task.Background ~func_name:label ~release_time:at
       ~created_at:(Clock.now t.clk) (fun _task -> f ()))

let every t ~label ~every ?(until = infinity) f =
  if every <= 0.0 then invalid_arg "Strip_db.every: period <= 0";
  (* the next tick is scheduled only on success, so a retried tick
     cannot double-schedule *)
  let rec tick next =
    if next <= until then
      at t ~label ~at:next (fun () ->
          f ();
          tick (next +. every))
  in
  tick (Clock.now t.clk +. every)

let schedule_periodic t ~every:period ?until ?(label = "periodic") f =
  every t ~label ~every:period ?until (fun () ->
      with_txn_injected t ~detail:label f)

(* ------------------------------------------------------------------ *)
(* Durability: checkpoints and crashes.                                 *)

(* Disk-full is typed backpressure, not an abort: the device refused the
   bytes, so the commit (or checkpoint mark) never became durable.  The
   engine treats it as a crash — volatile state is condemned and the
   restart driver recovers from the last checkpoint, whose truncation
   reclaims log space and lets progress resume. *)
let wal_guard f =
  try f ()
  with Wal.Disk_full _ ->
    Meter.tick "disk_full_stall";
    raise (Fault.Crashed { at = "disk_full" })

let checkpoint t =
  match t.dur with
  | None -> invalid_arg "Strip_db.checkpoint: no durability layer"
  | Some d ->
    Engine.settle t.eng;
    let w = Durable.wal d in
    (* The image's LSN is only meaningful over stable log, so flush any
       riders first (there are none between transactions, but a direct
       call may land anywhere). *)
    if Wal.pending_bytes w > 0 then Wal.fsync w;
    let lsn = Wal.durable_end w in
    let now = Clock.now t.clk in
    let parts, rows =
      Checkpoint.image t.cp_cache ~cat:t.cat ~views:(view_sql t)
        ~reg:(Rule_manager.registry t.mgr) ~now ~wal_lsn:lsn
    in
    Meter.tick_n "checkpoint_row" rows;
    (* Crash site: the image is built but not installed.  The previous
       checkpoint and the untruncated log remain the recovery source. *)
    (match t.fi with
    | None -> ()
    | Some fi -> Fault.fire fi ~site:Fault.Crash ~txid:0 ~detail:"checkpoint");
    Durable.install_parts d ~parts ~lsn ~time:now;
    (* Truncate before appending the mark — the byte stream is identical
       (the mark's LSN was fixed above), and reclaiming first means a
       disk-full clamp cannot livelock checkpointing: by the time the
       mark needs space, the replayed log is already gone.  With
       [retain >= 2] slots, truncation stops at the oldest retained
       slot's LSN so CRC-failure fallback keeps its redo tail. *)
    let cut = Durable.truncation_floor d in
    Wal.truncate_to w ~lsn:cut;
    Durable.note_truncated d ~below:cut;
    wal_guard (fun () ->
        ignore
          (Wal.append w
             (Wal.Checkpoint_mark { time = now; lsn })));
    Wal.fsync w

(* A plain background task — no transaction, so the snapshot sits
   between transactions by construction (action-consistency). *)
let schedule_checkpoints t ~every:period ?until () =
  if t.dur = None then
    invalid_arg "Strip_db.schedule_checkpoints: no durability layer";
  every t ~label:"checkpoint" ~every:period ?until (fun () ->
      checkpoint t)

(* Condemn all volatile state: the engine's queues and in-flight work, and
   any WAL bytes appended but not yet fsynced.  Durable state (stable log,
   installed checkpoint) is untouched — it is all recovery gets. *)
let crash t =
  Engine.discard_all t.eng;
  match t.dur with
  | None -> ()
  | Some d -> Wal.lose_tail (Durable.wal d)

let run ?until t = Engine.run ?until t.eng

let stats t = Engine.stats t.eng
