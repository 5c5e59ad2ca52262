open Strip_relational

let c_abort_transaction = Meter.counter "abort_transaction"
let c_begin_transaction = Meter.counter "begin_transaction"
let c_commit_transaction = Meter.counter "commit_transaction"

type status = Active | Committed | Aborted

exception Lock_conflict of {
  txid : int;
  blockers : int list;
  deadlock : bool;
}

type t = {
  id : int;
  cat : Catalog.t;
  locks : Lock.t;
  clock : Clock.t;
  tlog : Tlog.t;
  tenv : Catalog.env;
  mutable pinned : Record.t list;
  mutable st : status;
  mutable tcommit : float option;
  mutable thooks : Sql_exec.hooks option;  (* built on first use *)
}

let next_txid = ref 0

let begin_ ~cat ~locks ~clock ?(env = []) () =
  incr next_txid;
  Meter.tick_c c_begin_transaction;
  {
    id = !next_txid;
    cat;
    locks;
    clock;
    tlog = Tlog.create ();
    tenv = env;
    pinned = [];
    st = Active;
    tcommit = None;
    thooks = None;
  }

let txid t = t.id
let status t = t.st
let log t = t.tlog
let env t = t.tenv
let commit_time t =
  match t.tcommit with
  | Some c -> c
  | None -> invalid_arg "Transaction.commit_time: not committed"

let require_active t op =
  if t.st <> Active then
    invalid_arg (Printf.sprintf "Transaction.%s: transaction %d not active" op t.id)

let conflict t = function
  | Lock.Granted -> ()
  | Lock.Blocked blockers ->
    raise (Lock_conflict { txid = t.id; blockers; deadlock = false })
  | Lock.Deadlock blockers ->
    raise (Lock_conflict { txid = t.id; blockers; deadlock = true })

let acquire t res mode = conflict t (Lock.acquire t.locks ~owner:t.id res mode)

let pin t r =
  Record.pin r;
  t.pinned <- r :: t.pinned

let lmode = function Sql_exec.Shared -> Lock.S | Sql_exec.Exclusive -> Lock.X

let make_hooks t : Sql_exec.hooks =
  {
    Sql_exec.lock_table =
      (fun tb mode -> acquire t (Lock.Rel (Table.name tb)) (lmode mode));
    lock_record =
      (fun tb r mode ->
        (* Lock the stable logical-row identity: updates version records,
           so locking the version rid would let a second writer slip past
           the first one's still-held lock on the superseded version. *)
        let res = Lock.Rec (Table.name tb, r.Record.base) in
        match Lock.request t.locks ~owner:t.id res (lmode mode) with
        | Lock.Held -> ()
        | Lock.Acquired -> (
          (* Pin the pre-image on first exclusive acquisition so the rule
             pass can read it after the update retires it. *)
          match mode with
          | Sql_exec.Exclusive -> pin t r
          | Sql_exec.Shared -> ())
        | Lock.Refused o -> conflict t o);
    on_insert = (fun tb r -> Tlog.log_insert t.tlog ~table:(Table.name tb) r);
    on_update =
      (fun tb ~old_rec ~new_rec ->
        Tlog.log_update t.tlog ~table:(Table.name tb) ~old_rec ~new_rec);
    on_delete = (fun tb r -> Tlog.log_delete t.tlog ~table:(Table.name tb) r);
  }

let hooks t =
  match t.thooks with
  | Some h -> h
  | None ->
    let h = make_hooks t in
    t.thooks <- Some h;
    h

let exec_stmt t stmt =
  require_active t "exec";
  Sql_exec.exec ~hooks:(hooks t) t.cat ~env:t.tenv stmt

let exec t s = exec_stmt t (Sql_parser.parse_statement s)

let lock_from_tables t (ast : Sql_parser.select_ast) =
  List.iter
    (fun (r : Sql_parser.table_ref) ->
      match Catalog.find_table t.cat r.rel with
      | Some _ -> acquire t (Lock.Rel r.rel) Lock.S
      | None -> ())
    ast.from

let query t s =
  require_active t "query";
  let ast = Sql_parser.parse_select_string s in
  lock_from_tables t ast;
  let plan = Sql_exec.plan_select t.cat ~env:t.tenv ast in
  Query.run t.cat ~env:t.tenv plan

let commit t =
  require_active t "commit";
  Meter.tick_c c_commit_transaction;
  t.tcommit <- Some (Clock.now t.clock);
  t.st <- Committed;
  Lock.release_all t.locks ~owner:t.id

let cleanup t =
  List.iter Record.unpin t.pinned;
  t.pinned <- []

let abort t =
  require_active t "abort";
  Meter.tick_c c_abort_transaction;
  (* Undo in reverse order.  Because updates version records, the record a
     log entry names may since have been superseded; [current] maps an
     original rid to the live record now standing for it. *)
  let current : (int, Record.t) Hashtbl.t = Hashtbl.create 8 in
  let resolve (r : Record.t) =
    match Hashtbl.find_opt current r.Record.rid with Some x -> x | None -> r
  in
  List.iter
    (fun (e : Tlog.entry) ->
      let tb = Catalog.table_exn t.cat e.table in
      match e.change with
      | Tlog.Inserted r ->
        let c = resolve r in
        if c.Record.live then Table.delete tb c
      | Tlog.Deleted r ->
        let fresh = Table.insert tb (Array.copy r.Record.values) in
        Hashtbl.replace current r.Record.rid fresh
      | Tlog.Updated { old_rec; new_rec } ->
        let c = resolve new_rec in
        if c.Record.live then begin
          let fresh = Table.update tb c (Array.copy old_rec.Record.values) in
          Hashtbl.replace current old_rec.Record.rid fresh
        end)
    (Tlog.entries_rev t.tlog);
  t.st <- Aborted;
  (* Aborts release physically even inside a defer window: the undo above
     already took effect in real execution order, so no zombie holder must
     outlive the transaction. *)
  Lock.release_now t.locks ~owner:t.id;
  cleanup t
