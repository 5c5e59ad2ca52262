open Strip_relational
open Strip_txn
let c_rule_check = Meter.counter "rule_check"
module Trace = Strip_obs.Trace
module Span = Strip_obs.Span
module Provenance = Strip_obs.Provenance

type action_ctx = {
  txn : Transaction.t;
  task : Task.t;
  cat : Catalog.t;
  clock : Clock.t;
}

type user_fun = action_ctx -> unit

exception Rule_error of string

let rule_error fmt = Printf.ksprintf (fun s -> raise (Rule_error s)) fmt

type compiled = {
  rule : Rule_ast.t;
  cond : (Query.prepared * string option) list;
  eval : (Query.prepared * string option) list;
  (* declared layout of every named bound table, for merge compatibility *)
  bound_schemas : (string * Schema.t) list;
}

type t = {
  cat : Catalog.t;
  locks : Lock.t;
  clock : Clock.t;
  fault : Fault.t option;
  dur : Durable.t option;
  funcs : (string, user_fun) Hashtbl.t;
  by_table : (string, compiled list ref) Hashtbl.t;
  mutable all_rules : compiled list;  (* creation order *)
  reg : Unique.t;
  mutable submit : (Task.t -> unit) option;
  stats : Strip_sim.Stats.t;  (* firing, task and merge counters *)
  trace : Trace.t option;
  prov : Provenance.t option;
  (* trace context of the transaction currently committing through this
     manager — set from the running task so [fire] can parent-link the
     rule tasks it creates and [commit_txn] can annotate the WAL *)
  mutable cur_ctx : Span.ctx option;
  mutable on_commit :
    (task:Task.t -> tables:string list -> now:float -> unit) option;
  (* Cross-shard partial deltas (lib/shard).  [emit_partial] buffers a
     weighted contribution to a composite row owned by another shard while
     the action transaction runs; at commit the buffer is stamped with
     ship sequence numbers from 1 per destination ([partial_seqs.(dst)]
     is the last), logged as [Wal.Shard_out] records in the same append
     batch as the commit (atomicity), and handed to the sink after the
     fsync.  All three stay empty outside sharded runs, so single-primary
     behavior is byte-identical. *)
  mutable partial_sink :
    (seq:int ->
    dst:int ->
    key:Value.t list ->
    delta:float ->
    created_at:float ->
    ctx:Span.ctx option ->
    unit)
    option;
  mutable partial_buf : (int * Value.t list * float) list;  (* reversed *)
  mutable release_buf : Value.t list list;  (* reversed *)
  mutable partial_seqs : int array;
  mutable release_sink : (key:Value.t list -> unit) option;
}

let create ~cat ~locks ~clock ~stats ?fault ?durable ?trace ?provenance () =
  {
    cat;
    locks;
    clock;
    fault;
    dur = durable;
    funcs = Hashtbl.create 16;
    by_table = Hashtbl.create 16;
    all_rules = [];
    reg = Unique.create ();
    submit = None;
    stats;
    trace;
    prov = provenance;
    cur_ctx = None;
    on_commit = None;
    partial_sink = None;
    partial_buf = [];
    release_buf = [];
    partial_seqs = [||];
    release_sink = None;
  }

let set_partial_sink t f = t.partial_sink <- Some f
let set_release_sink t f = t.release_sink <- Some f

let emit_partial t ~dst ~key ~delta =
  t.partial_buf <- (dst, key, delta) :: t.partial_buf

let note_shard_release t ~key = t.release_buf <- key :: t.release_buf

let clear_partials t =
  t.partial_buf <- [];
  t.release_buf <- []

let partial_seqs t =
  Array.to_list t.partial_seqs
  |> List.mapi (fun dst seq -> (dst, seq))
  |> List.filter (fun (_, seq) -> seq > 0)

(* [partial_seqs], grown to hold a slot for [dst]. *)
let slots t dst =
  let len = Array.length t.partial_seqs in
  if dst >= len then
    t.partial_seqs <-
      Array.init (dst + 1) (fun i -> if i < len then t.partial_seqs.(i) else 0);
  t.partial_seqs

let set_partial_seqs t = List.iter (fun (dst, seq) -> (slots t dst).(dst) <- seq)

let set_commit_hook t f = t.on_commit <- Some f

let set_current_ctx t ctx = t.cur_ctx <- ctx

let ctx_args (task : Task.t) =
  match task.Task.ctx with None -> [] | Some c -> Span.args c

let fault t = t.fault

let inject t ~txn ~site ~detail =
  match t.fault with
  | None -> ()
  | Some f -> Fault.fire f ~site ~txid:(Transaction.txid txn) ~detail

let set_submitter t f = t.submit <- Some f

let submit t task =
  match t.submit with
  | Some f -> f task
  | None -> rule_error "no task submitter installed (call set_submitter)"

let register_function t name fn =
  Hashtbl.replace t.funcs (String.lowercase_ascii name) fn

let find_function t name =
  Hashtbl.find_opt t.funcs (String.lowercase_ascii name)

let registry t = t.reg

(* Installed as the engine's requeue hook: a failed unique transaction
   re-enters the registry while it waits out its retry backoff, so new
   firings keep merging into its (still intact) bound tables. *)
let reregister_task t (task : Task.t) =
  match task.Task.unique_key with
  | Some key -> Unique.register t.reg ~func:task.Task.func_name ~key task
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Durable queue logging.  With a durability layer wired, every unique
   queue transition is appended to the WAL (pending until the enclosing
   commit's fsync), so queued batches can be rebuilt after a crash. *)

(* Disk-full on an append is typed backpressure: the device refused the
   bytes, so the acked-but-unlogged work cannot be made durable.  Treat
   it as a crash — the restart driver recovers from the last checkpoint,
   whose truncation reclaims log space. *)
let wal_guard f =
  try f ()
  with Wal.Disk_full _ ->
    Meter.tick "disk_full_stall";
    raise (Fault.Crashed { at = "disk_full" })

let log_uq t record =
  match t.dur with
  | None -> ()
  | Some d -> wal_guard (fun () -> ignore (Wal.append (Durable.wal d) record))

let bound_rows_of (bound : (string * Temp_table.t) list) : Wal.bound_rows =
  List.map (fun (name, tmp) -> (name, Temp_table.to_rows tmp)) bound

(* Installed as the engine's shed hook.  A coalesced victim's rows change
   hands before the victim is cancelled: log the merge (and the victim's
   release) first, so the durable queue never loses the rows.  A plain
   drop logs nothing — the victim's durable enqueue survives, and replay
   after a crash conservatively restores the shed work. *)
let log_shed t ~(victim : Task.t) ~(into : Task.t option) =
  if t.dur <> None then
    match (victim.Task.unique_key, into) with
    | Some vkey, Some dst -> (
      match dst.Task.unique_key with
      | Some dkey ->
        log_uq t
          (Wal.Uq_merge
             {
               func = dst.Task.func_name;
               key = dkey;
               bound = bound_rows_of victim.Task.bound;
             });
        log_uq t
          (Wal.Uq_release { func = victim.Task.func_name; key = vkey })
      | None -> ())
    | _ -> ()

let n_rule_firings t = Strip_sim.Stats.n_firings t.stats
let n_tasks_created t = Strip_sim.Stats.n_rule_tasks t.stats
let n_merges t = Strip_sim.Stats.n_merges t.stats
let reset_stats t = Strip_sim.Stats.reset_rule_counters t.stats

(* ------------------------------------------------------------------ *)
(* Rule compilation.                                                    *)

let transition_names = [ "inserted"; "deleted"; "new"; "old" ]

let compile_rule t (rule : Rule_ast.t) =
  let base =
    match Catalog.find_table t.cat rule.Rule_ast.rtable with
    | Some tb -> Table.schema tb
    | None -> rule_error "rule %s: unknown table %s" rule.rname rule.rtable
  in
  let tschema =
    Schema.make
      (Schema.columns (Schema.unqualify base)
      @ [ Schema.column Transition.execute_order_column Value.TInt ])
  in
  let resolve_rel name =
    if List.mem name transition_names then Some (tschema, `Tmp)
    else
      match Catalog.find_table t.cat name with
      | Some tb -> Some (Table.schema tb, `Std)
      | None -> None
  in
  let plan_bound (bq : Rule_ast.bound_query) =
    let plan =
      try Sql_parser.plan_select ~resolve_rel bq.query
      with Sql_parser.Parse_error msg ->
        rule_error "rule %s: %s" rule.rname msg
    in
    (plan, bq.bind_as)
  in
  let cond = List.map plan_bound rule.condition in
  let eval = List.map plan_bound rule.evaluate in
  (* Output schemas of the bound queries (for layout validation) — computed
     against empty transition tables. *)
  let dummy = Transition.build ~schema:base ~table:rule.rtable [] in
  let env = Transition.env dummy in
  let bound_schemas =
    List.filter_map
      (fun (plan, name) ->
        match name with
        | None -> None
        | Some n -> (
          match Query.schema_of t.cat ~env plan with
          | sch -> Some (n, Schema.unqualify sch)
          | exception Query.Plan_error msg ->
            rule_error "rule %s, bound table %s: %s" rule.rname n msg))
      (cond @ eval)
  in
  Transition.retire dummy;
  let prepare = List.map (fun (plan, name) -> (Query.prepare plan, name)) in
  (* Unique columns must come from the bound tables. *)
  (match rule.uniqueness with
  | Rule_ast.Unique_on cols ->
    List.iter
      (fun col ->
        if
          not
            (List.exists (fun (_, sch) -> Schema.mem sch col) bound_schemas)
        then
          rule_error
            "rule %s: unique column %s does not appear in any bound table"
            rule.rname col)
      cols
  | Rule_ast.Not_unique | Rule_ast.Unique -> ());
  (* Bound tables of rules executing the same function must be defined
     identically (§2), so batches can merge. *)
  List.iter
    (fun other ->
      if String.lowercase_ascii other.rule.Rule_ast.func
         = String.lowercase_ascii rule.func
      then
        List.iter
          (fun (n, sch) ->
            match List.assoc_opt n other.bound_schemas with
            | Some osch when not (Schema.equal_layout sch osch) ->
              rule_error
                "rule %s: bound table %s differs in layout from rule %s's \
                 definition (same function %s)"
                rule.rname n other.rule.Rule_ast.rname rule.func
            | _ -> ())
          bound_schemas)
    t.all_rules;
  { rule; cond = prepare cond; eval = prepare eval; bound_schemas }

let create_rule t rule =
  if
    List.exists
      (fun c -> c.rule.Rule_ast.rname = rule.Rule_ast.rname)
      t.all_rules
  then rule_error "duplicate rule name %s" rule.Rule_ast.rname;
  let compiled = compile_rule t rule in
  t.all_rules <- t.all_rules @ [ compiled ];
  let slot =
    match Hashtbl.find_opt t.by_table rule.Rule_ast.rtable with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add t.by_table rule.Rule_ast.rtable l;
      l
  in
  slot := !slot @ [ compiled ]

let create_rule_text t s = create_rule t (Rule_parser.parse s)

let drop_rule t name =
  if not (List.exists (fun c -> c.rule.Rule_ast.rname = name) t.all_rules)
  then rule_error "no such rule %s" name;
  t.all_rules <-
    List.filter (fun c -> c.rule.Rule_ast.rname <> name) t.all_rules;
  Hashtbl.iter
    (fun _ slot ->
      slot := List.filter (fun c -> c.rule.Rule_ast.rname <> name) !slot)
    t.by_table

let rules t = List.map (fun c -> c.rule) t.all_rules

(* ------------------------------------------------------------------ *)
(* Derived-row provenance.  At each rule-action commit, every written
   derived row (keyed by its leading column) gets an entry linking it to
   the firing — the task, transaction, trace context, and the bound-table
   base deltas that drove it.  Inputs are capped per bound table so one
   huge batch cannot bloat an entry; the ring itself bounds history. *)

let max_prov_inputs = 8

let render_row row =
  "(" ^ String.concat ", " (Array.to_list (Array.map Value.to_string row)) ^ ")"

let prov_inputs (task : Task.t) =
  List.concat_map
    (fun (name, tmp) ->
      let n = Temp_table.cardinal tmp in
      List.map
        (fun row -> { Provenance.src_table = name; src_desc = render_row row })
        (Temp_table.to_rows ~limit:max_prov_inputs tmp)
      @
      if n > max_prov_inputs then
        [
          {
            Provenance.src_table = name;
            src_desc =
              Printf.sprintf "... %d more row(s)" (n - max_prov_inputs);
          };
        ]
      else [])
    task.Task.bound

let record_provenance p ~(task : Task.t) ~txid ~now ~ops =
  let trace, span =
    match task.Task.ctx with
    | None -> (0, 0)
    | Some c -> (c.Span.trace, c.Span.span)
  in
  let inputs = prov_inputs task in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun op ->
      let view = Wal.op_table op in
      let key =
        match op with
        | Wal.Insert { values; _ } | Wal.Delete { values; _ } ->
          if Array.length values > 0 then Value.to_string values.(0) else ""
        | Wal.Update { new_values; _ } ->
          if Array.length new_values > 0 then Value.to_string new_values.(0)
          else ""
      in
      if not (Hashtbl.mem seen (view, key)) then begin
        Hashtbl.add seen (view, key) ();
        Provenance.record p
          {
            Provenance.view;
            key;
            rule = task.Task.func_name;
            task_id = task.Task.task_id;
            txid;
            trace;
            span;
            committed_at = now;
            inputs;
          }
      end)
    ops

(* ------------------------------------------------------------------ *)
(* Action execution.                                                    *)

let rec run_action t task =
  let func = task.Task.func_name in
  match find_function t func with
  | None -> rule_error "user function %s is not registered" func
  | Some fn ->
    (* A fresh firing must now start a new transaction (§2). *)
    (match task.Task.unique_key with
    | Some key -> Unique.remove t.reg ~func ~key
    | None -> ());
    (* The action's trace context is current while it runs: cascade
       firings parent under it, and its commit note carries its span. *)
    t.cur_ctx <- task.Task.ctx;
    let txn =
      Transaction.begin_ ~cat:t.cat ~locks:t.locks ~clock:t.clock
        ~env:task.Task.bound ()
    in
    (try
       (* Injection sites for the fault harness: the user function raising
          on entry; then — after the real work, but before commit-time rule
          processing so no phantom cascade firings escape an aborted
          transaction — a lock conflict, a deadlock victimization, or a
          plain abort. *)
       inject t ~txn ~site:Fault.User_fun ~detail:func;
       fn { txn; task; cat = t.cat; clock = t.clock };
       inject t ~txn ~site:Fault.Lock_conflict ~detail:func;
       inject t ~txn ~site:Fault.Deadlock ~detail:func;
       inject t ~txn ~site:Fault.Txn_abort ~detail:func;
       inject t ~txn ~site:Fault.Crash ~detail:func
     with e ->
       if Transaction.status txn = Transaction.Active then
         Transaction.abort txn;
       t.cur_ctx <- None;
       clear_partials t;
       raise e);
    if Transaction.status txn = Transaction.Active then begin
      (* the written-table set, captured before cleanup clears the log *)
      let tables = Tlog.tables_touched (Transaction.log txn) in
      (* Redo images for provenance, captured likewise (the commit clears
         the transaction log). *)
      let prov_ops =
        match t.prov with
        | None -> []
        | Some _ -> Wal.ops_of_tlog (Transaction.log txn)
      in
      let txid = Transaction.txid txn in
      (* A committing unique transaction durably releases its queue slot. *)
      let release =
        match task.Task.unique_key with
        | Some key -> Some (func, key)
        | None -> None
      in
      commit_txn ?release t txn;
      t.cur_ctx <- None;
      let now = Clock.now t.clock in
      (match t.trace with
      | None -> ()
      | Some tr ->
        Trace.instant tr ~ts:now ~tid:Trace.tid_recompute
          ~args:
            ([
               ("task", Trace.Int task.Task.task_id);
               ("func", Trace.Str func);
               ("tables", Trace.Str (String.concat "," tables));
             ]
            @ ctx_args task)
          "commit");
      (match t.prov with
      | None -> ()
      | Some p -> record_provenance p ~task ~txid ~now ~ops:prov_ops);
      match t.on_commit with
      | Some f -> f ~task ~tables ~now
      | None -> ()
    end
    else begin
      t.cur_ctx <- None;
      clear_partials t
    end

(* ------------------------------------------------------------------ *)
(* Firing: bind results, partition, merge-or-create tasks.              *)

and fire t compiled (named_results : (string * Query.result) list) =
  let rule = compiled.rule in
  let func = rule.Rule_ast.func in
  let now = Clock.now t.clock in
  let release = now +. rule.Rule_ast.delay in
  Strip_sim.Stats.record_firing t.stats;
  let overrides result =
    if Schema.mem (Query.result_schema result) "commit_time" then
      [ ("commit_time", Value.Float now) ]
    else []
  in
  let whole (name, result) =
    (name, Query.all_rows ~overrides:(overrides result) result)
  in
  (* The firing's bound tables, in bound order: for [unique on], the ones
     holding unique columns (partitioned, Appendix A) first, then the
     rest whole.  [cur.(i)] is the key of [parts.(i)] the firing is at; a
     whole table stays at its one key, 0. *)
  let parts, keyed, key_src =
    match rule.Rule_ast.uniqueness with
    | Rule_ast.Not_unique | Rule_ast.Unique ->
      (Array.of_list (List.map whole named_results), 0, [||])
    | Rule_ast.Unique_on cols ->
      let with_cols, without_cols =
        List.map
          (fun (name, result) ->
            let schema = Query.result_schema result in
            (name, result, List.filter (Schema.mem schema) cols))
          named_results
        |> List.partition (fun (_, _, owned) -> owned <> [])
      in
      (* where each unique column's value is read: (part, position among
         the part's partition columns) *)
      let key_src =
        List.map
          (fun col ->
            let rec find i = function
              | [] -> assert false
              | (_, _, owned) :: rest -> (
                match List.find_index (String.equal col) owned with
                | Some pos -> (i, pos)
                | None -> find (i + 1) rest)
            in
            find 0 with_cols)
          cols
      in
      ( Array.of_list
          (List.map
             (fun (name, result, owned) ->
               (name, Query.partition ~overrides:(overrides result) result ~cols:owned))
             with_cols
          @ List.map (fun (name, result, _) -> whole (name, result)) without_cols),
        List.length with_cols,
        Array.of_list key_src )
  in
  let cur = Array.make (Array.length parts) 0 in
  let images () =
    Array.to_list
      (Array.mapi (fun i (name, rows) -> (name, Query.row_images rows cur.(i))) parts)
  in
  let merge_or_create ~key =
    match Unique.find t.reg ~func ~key with
    | Some queued ->
      (* Append this firing's rows to the queued TCB's bound tables. *)
      Strip_sim.Stats.record_merge t.stats;
      (match t.trace with
      | None -> ()
      | Some tr ->
        (* The merge event carries the queued task's context plus the
           incoming firing's span, so the merged trace shows both causal
           parents of the batch. *)
        let from_args =
          match t.cur_ctx with
          | None -> []
          | Some c ->
            [
              ("from_trace", Trace.Int c.Span.trace);
              ("from_span", Trace.Int c.Span.span);
            ]
        in
        Trace.instant tr ~ts:now ~tid:Trace.tid_recompute
          ~args:
            ([
               ("task", Trace.Int queued.Task.task_id);
               ("func", Trace.Str func);
               ( "key",
                 Trace.Str
                   (String.concat "," (List.map Value.to_string key)) );
             ]
            @ ctx_args queued @ from_args)
          "merge");
      (* The rows go straight from the condition result into the queued
         bound tables.  The cost model still charges a merge as a bind
         into a fresh table plus an absorb of it (Table 1): the bind's
         share is ticked here, before the log record as the bind was, and
         the absorb's share as each row is appended. *)
      for i = 0 to Array.length parts - 1 do
        Temp_table.tick_appends (Query.key_length (snd parts.(i)) cur.(i))
      done;
      if t.dur <> None then log_uq t (Wal.Uq_merge { func; key; bound = images () });
      for i = 0 to Array.length parts - 1 do
        let name, rows = parts.(i) in
        match List.assoc name queued.Task.bound with
        | dst -> Query.append_rows rows cur.(i) dst
        | exception Not_found ->
          rule_error "rule %s: queued transaction for %s lacks bound table %s"
            rule.Rule_ast.rname func name
      done
    | None ->
      Strip_sim.Stats.record_rule_task t.stats;
      let bound =
        Array.to_list
          (Array.mapi (fun i (name, rows) -> (name, Query.bind ~name rows cur.(i))) parts)
      in
      (* The rule task is a child span of the transaction that fired it. *)
      let ctx = Option.map Span.child t.cur_ctx in
      if t.dur <> None then begin
        log_uq t
          (Wal.Uq_enqueue
             {
               func;
               key;
               release_time = release;
               created_at = now;
               bound = images ();
             });
        match ctx with
        | None -> ()
        | Some c ->
          (* rides the enqueue's fsync; crash recovery reattaches the
             context to the resubmitted batch *)
          log_uq t
            (Wal.Trace_note
               {
                 subject = Wal.For_uq { func; key };
                 trace = c.Span.trace;
                 span = c.Span.span;
               })
      end;
      let task =
        Task.create ~klass:Task.Recompute ~func_name:func ~unique_key:key
          ~bound ?ctx ~release_time:release ~created_at:now
          (fun task -> run_action t task)
      in
      Unique.register t.reg ~func ~key task;
      submit t task
  in
  match rule.Rule_ast.uniqueness with
  | Rule_ast.Not_unique ->
    Strip_sim.Stats.record_rule_task t.stats;
    let ctx = Option.map Span.child t.cur_ctx in
    let task =
      Task.create ~klass:Task.Recompute ~func_name:func
        ~bound:
          (Array.to_list
             (Array.map (fun (name, rows) -> (name, Query.bind ~name rows 0)) parts))
        ?ctx ~release_time:release ~created_at:now
        (fun task -> run_action t task)
    in
    submit t task
  | Rule_ast.Unique -> merge_or_create ~key:[]
  | Rule_ast.Unique_on _ ->
    (* Appendix A: the unique key ranges over the cartesian product of
       the partitioned tables' distinct sub-keys (column names are unique
       across bound tables), first table outermost, each table's keys in
       first-seen order. *)
    let rec each i =
      if i = keyed then merge_or_create ~key:(key_at parts cur key_src 0)
      else
        for k = 0 to Query.n_keys (snd parts.(i)) - 1 do
          cur.(i) <- k;
          each (i + 1)
        done
    in
    each 0

(* The unique key of the firing's current combination, in the rule's
   column order. *)
and key_at parts cur key_src j =
  if j = Array.length key_src then []
  else
    let i, pos = key_src.(j) in
    Query.key_value (snd parts.(i)) cur.(i) pos :: key_at parts cur key_src (j + 1)

(* ------------------------------------------------------------------ *)
(* Commit-time processing (§6.3).                                       *)

and process_commit t txn =
  let log = Transaction.log txn in
  if Tlog.length log > 0 then begin
    let tables = Tlog.tables_touched log in
    let all = lazy (Tlog.entries log) in
    List.iter
      (fun table ->
        match Hashtbl.find_opt t.by_table table with
        | None | Some { contents = [] } -> ()
        | Some { contents = rules } ->
          let tb = Catalog.table_exn t.cat table in
          let schema = Table.schema tb in
          let entries =
            match tables with
            | [ _ ] -> Lazy.force all
            | _ ->
              List.filter
                (fun (e : Tlog.entry) -> e.table = table)
                (Lazy.force all)
          in
          let trans = Transition.build ~schema ~table entries in
          let env = Transition.env trans in
          List.iter
            (fun compiled ->
              Meter.tick_c c_rule_check;
              let triggered =
                List.exists
                  (fun (e : Tlog.entry) ->
                    List.exists
                      (fun ev -> Rule_ast.event_matches ~schema ev e.change)
                      compiled.rule.Rule_ast.events)
                  entries
              in
              if triggered then begin
                let run_plans plans =
                  List.map
                    (fun (q, name) -> (Query.run_prepared t.cat ~env q, name))
                    plans
                in
                let cond_results = run_plans compiled.cond in
                let ok =
                  List.for_all
                    (fun (r, _) -> Query.row_count r > 0)
                    cond_results
                in
                if ok then begin
                  let eval_results = run_plans compiled.eval in
                  let named =
                    List.filter_map
                      (fun (r, name) ->
                        match name with Some n -> Some (n, r) | None -> None)
                      (cond_results @ eval_results)
                  in
                  fire t compiled named
                end
              end)
            rules;
          Transition.retire trans)
      tables
  end

and commit_txn ?release t txn =
  process_commit t txn;
  (* Redo images must be captured before cleanup clears the log; rule
     firings above have already appended their Uq records to the pending
     WAL tail, so the Commit record lands after them in log order. *)
  let ops =
    match t.dur with
    | None -> []
    | Some _ -> Wal.ops_of_tlog (Transaction.log txn)
  in
  Transaction.commit txn;
  (* Stamp buffered cross-shard partials, in emit order, with their
     destination's next ship seq; their Shard_out records ride the
     commit's append batch so a partial is durable iff its commit is. *)
  let commit_time = Clock.now t.clock in
  let partials =
    List.map
      (fun (dst, key, delta) ->
        let seqs = slots t dst in
        let seq = seqs.(dst) + 1 in
        seqs.(dst) <- seq;
        (seq, dst, key, delta))
      (List.rev t.partial_buf)
  in
  let shard_releases = List.rev t.release_buf in
  clear_partials t;
  (match t.dur with
  | None -> ()
  | Some d ->
    let w = Durable.wal d in
    let commit_recs =
      if ops = [] then []
      else
        (* The trace note precedes its Commit record so a replica scanning
           in order has the context before it applies the transaction. *)
        (match t.cur_ctx with
        | None -> []
        | Some c ->
          [
            Wal.Trace_note
              {
                subject = Wal.For_txn (Transaction.txid txn);
                trace = c.Span.trace;
                span = c.Span.span;
              };
          ])
        @ [
            Wal.Commit
              { txid = Transaction.txid txn; time = commit_time; ops };
          ]
    in
    let commit_recs =
      commit_recs
      @ (match release with
        | Some (func, key) -> [ Wal.Uq_release { func; key } ]
        | None -> [])
      @ List.map
          (fun (seq, dst, key, delta) ->
            Wal.Shard_out { seq; dst; key; delta; created_at = commit_time })
          partials
      @ List.map (fun key -> Wal.Shard_release { key }) shard_releases
    in
    if commit_recs <> [] then
      wal_guard (fun () -> ignore (Wal.append_batch w commit_recs));
    if Wal.pending_bytes w > 0 then begin
      (* The window between the in-memory commit and the log reaching
         stable storage: a crash here loses this transaction. *)
      inject t ~txn ~site:Fault.Crash ~detail:"wal_flush";
      Wal.fsync w
    end);
  (* Hand the now-durable partials to the shard coordinator for shipping.
     The sink runs after the fsync: a crash before this point re-ships
     from the WAL, a crash after it ships twice — both collapse to one
     merge at the owner's dedup. *)
  (match t.partial_sink with
  | None -> ()
  | Some sink ->
    List.iter
      (fun (seq, dst, key, delta) ->
        sink ~seq ~dst ~key ~delta ~created_at:commit_time ~ctx:t.cur_ctx)
      partials);
  (* Releases likewise reach the coordinator only once durable: the apply
     task peeks (never takes) the merged delta, so an abort after the body
     leaves the queue entry intact for a clean re-apply. *)
  (match t.release_sink with
  | None -> ()
  | Some f -> List.iter (fun key -> f ~key) shard_releases);
  Transaction.cleanup txn

(* ------------------------------------------------------------------ *)
(* Crash recovery support.                                              *)

let bound_schemas_for t ~func =
  let lf = String.lowercase_ascii func in
  Option.map
    (fun c -> c.bound_schemas)
    (List.find_opt
       (fun c -> String.lowercase_ascii c.rule.Rule_ast.func = lf)
       t.all_rules)

let resubmit_recovered t ~ctx ~func ~key ~release_time ~created_at
    ~(bound : Wal.bound_rows) =
  match bound_schemas_for t ~func with
  | None -> rule_error "recovery: no rule executes user function %s" func
  | Some schemas ->
    let bound_tbls =
      List.map
        (fun (name, rows) ->
          match List.assoc_opt name schemas with
          | None ->
            rule_error "recovery: function %s has no bound table %s" func name
          | Some schema ->
            (* No record pointers survive a restart: the recovered TCB is
               fully materialized, and later merges copy by value (the
               absorb slow path). *)
            let tmp = Temp_table.create_materialized ~name ~schema in
            List.iter (Temp_table.append_values tmp) rows;
            (name, tmp))
        bound
    in
    Strip_sim.Stats.record_rule_task t.stats;
    let task =
      Task.create ~klass:Task.Recompute ~func_name:func ~unique_key:key
        ~bound:bound_tbls ?ctx ~release_time ~created_at
        (fun task -> run_action t task)
    in
    Unique.register t.reg ~func ~key task;
    submit t task
