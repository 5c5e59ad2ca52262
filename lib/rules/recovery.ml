open Strip_relational
open Strip_txn

type stats = {
  had_checkpoint : bool;
  restored_tables : int;
  restored_rows : int;
  redo_commits : int;
  redo_ops : int;
  requeued : int;
  requeued_rows : int;
  released : int;
  torn_tail : bool;
  corrupt_tail : bool;
  cp_fallbacks : int;
  salvaged_ranges : int;
  salvaged_bytes : int;
  quarantined_bytes : int;
  orphan_merges : int;
}

type salvage = from_lsn:int -> len:int -> string option

(* ------------------------------------------------------------------ *)
(* Unique-queue reconstruction: start from the checkpoint's queue image,
   then replay the tail's enqueue/merge/release transitions in log
   order. *)

module QK = struct
  type t = string * Value.t list

  let equal (f1, k1) (f2, k2) =
    String.equal f1 f2
    && List.length k1 = List.length k2
    && List.for_all2 Value.equal k1 k2

  let hash (f, k) =
    List.fold_left (fun h v -> (h * 31) + Value.hash v) (Hashtbl.hash f) k
end

module QT = Hashtbl.Make (QK)

type qentry = {
  q_release : float;
  q_created : float;
  mutable q_bound : (string * Value.t array list) list;
}

let merge_bound entry (name, rows) =
  if List.mem_assoc name entry.q_bound then
    entry.q_bound <-
      List.map
        (fun (n, old) -> if n = name then (n, old @ rows) else (n, old))
        entry.q_bound
  else entry.q_bound <- entry.q_bound @ [ (name, rows) ]

let recover ?salvage db ~reinstall =
  let d =
    match Strip_db.durable db with
    | Some d -> d
    | None -> invalid_arg "Recovery.recover: database has no durability layer"
  in
  let cp, cp_fallbacks =
    match Durable.verified_slot d with
    | Some (s, _lsn, _time, skipped) ->
      if skipped > 0 then begin
        (* newer slot(s) failed their CRC: note the detection, fall back
           to the older verified image and redo its longer tail *)
        Durable.note_cp_detected d ~newest:skipped;
        Meter.tick_n "recovery_cp_fallback" skipped
      end;
      (Checkpoint.decode s, skipped)
    | None ->
      if Durable.snapshot d = None then
        invalid_arg "Recovery.recover: no checkpoint image installed"
      else
        invalid_arg
          "Recovery.recover: every retained checkpoint slot failed its CRC"
  in
  let cat = Strip_db.catalog db in
  (* 1. Restore every table (base and view) from the image. *)
  Checkpoint.restore_tables cp cat;
  let restored_rows =
    List.fold_left
      (fun a (ts : Checkpoint.table_snap) -> a + List.length ts.Checkpoint.rows)
      0 cp.Checkpoint.tables
  in
  Meter.tick_n "recovery_restore_row" restored_rows;
  (* 2. Re-register view definitions without executing them — the
     materialized tables were just restored. *)
  List.iter
    (fun (_name, sql) -> Strip_db.register_view_def db ~sql)
    cp.Checkpoint.views;
  (* 3. Reattach the application: handles, user functions, rules. *)
  reinstall ();
  (* 4. Redo the log tail with raw table operations.  No rule fires here —
     every maintenance action that committed left its own Commit record,
     and every one that did not is represented in the rebuilt queue.  The
     cursor read starts at the checkpoint LSN: truncation keeps
     [base_lsn <= wal_lsn], so nothing before it is re-decoded.

     Mid-log corruption is not fatal: the salvage ladder first tries to
     re-fetch clean bytes for the exact corrupt range from a replica
     whose log covers it ([?salvage]), and otherwise quarantines the
     tail from the corruption point — the checkpoint image plus audit
     repair then restore fidelity.  Redo only starts once the scan is
     clean, so corrupt bytes never influence the rebuilt state. *)
  let w = Durable.wal d in
  let salvaged_ranges = ref 0
  and salvaged_bytes = ref 0
  and quarantined_bytes = ref 0
  and saw_corruption = ref false in
  let rec clean_read () =
    let rd = Wal.read_from w ~lsn:cp.Checkpoint.wal_lsn in
    match rd.Wal.corrupt_at with
    | None -> rd
    | Some l ->
      saw_corruption := true;
      let r = Wal.next_valid_lsn w ~after:l in
      Durable.note_wal_detected d ~lsn:l ~len:(max 1 (r - l));
      Meter.tick "salvage_attempt";
      let fetched =
        match salvage with
        | Some fetch -> fetch ~from_lsn:l ~len:(r - l)
        | None -> None
      in
      (match fetched with
      | Some bytes ->
        Wal.splice w ~lsn:l ~bytes;
        Durable.note_wal_repaired d ~lsn:l ~len:(r - l);
        Meter.tick_n "salvage_byte" (r - l);
        incr salvaged_ranges;
        salvaged_bytes := !salvaged_bytes + (r - l)
      | None ->
        (* no replica covers the range: quarantine the tail from the
           corruption point; anything lost is restored by audit repair
           and quote resubmission *)
        let dropped = Wal.drop_from w ~lsn:l in
        Durable.note_wal_quarantined d ~from_lsn:l;
        Meter.tick_n "quarantine_byte" dropped;
        quarantined_bytes := !quarantined_bytes + dropped);
      clean_read ()
  in
  let rd = clean_read () in
  let redo = Redo.create cat in
  let n_commits = ref 0 and released = ref 0 and orphan_merges = ref 0 in
  let queue = QT.create 64 in
  (* trace contexts of queued batches, rebuilt from Trace_note riders *)
  let ctxs = QT.create 16 in
  let order = ref [] in
  let enqueue key entry =
    if not (QT.mem queue key) then order := key :: !order;
    QT.replace queue key entry
  in
  List.iter
    (fun (qe : Checkpoint.queue_entry) ->
      enqueue
        (qe.Checkpoint.qfunc, qe.Checkpoint.qkey)
        {
          q_release = qe.Checkpoint.qrelease_time;
          q_created = qe.Checkpoint.qcreated_at;
          q_bound = qe.Checkpoint.qbound;
        })
    cp.Checkpoint.queue;
  List.iter
    (fun (_lsn, record) ->
      match record with
      | Wal.Commit { ops; _ } ->
        incr n_commits;
        Redo.apply_commit redo ops
      | Wal.Uq_enqueue { func; key; release_time; created_at; bound } ->
        enqueue (func, key)
          { q_release = release_time; q_created = created_at; q_bound = bound }
      | Wal.Uq_merge { func; key; bound } -> (
        match QT.find_opt queue (func, key) with
        | Some e -> List.iter (merge_bound e) bound
        | None ->
          (* the enqueue this merge extends is gone (its range was
             quarantined, or the image predates a lost log segment):
             synthesize an immediately-releasable entry carrying the
             merged rows instead of aborting recovery *)
          incr orphan_merges;
          Meter.tick "recovery_orphan_merge";
          enqueue (func, key)
            {
              q_release = cp.Checkpoint.taken_at;
              q_created = cp.Checkpoint.taken_at;
              q_bound = bound;
            })
      | Wal.Uq_release { func; key } ->
        incr released;
        QT.remove queue (func, key);
        QT.remove ctxs (func, key)
      | Wal.Trace_note { subject = Wal.For_uq { func; key }; trace; span } ->
        QT.replace ctxs (func, key) (trace, span)
      | Wal.Trace_note { subject = Wal.For_txn _; _ } ->
        (* commit annotations matter to replicas, not to redo *)
        ()
      | Wal.Checkpoint_mark _ -> ()
      | Wal.Shard_out _ | Wal.Shard_in _ | Wal.Shard_release _
      | Wal.Shard_state _ ->
        (* cross-shard protocol state is rebuilt by the shard coordinator
           (Strip_shard.Coordinator), which scans the same log *)
        ())
    rd.Wal.records;
  (* 5. Resubmit the surviving queue in original enqueue order.  The
     resubmission is not re-logged — the post-recovery checkpoint below
     captures the rebuilt queue durably instead. *)
  let mgr = Strip_db.rules db in
  let requeued = ref 0 and requeued_rows = ref 0 in
  List.iter
    (fun ((func, key) as k) ->
      match QT.find_opt queue k with
      | None -> ()
      | Some e ->
        QT.remove queue k;
        Meter.tick "recovery_requeue";
        incr requeued;
        requeued_rows :=
          !requeued_rows
          + List.fold_left (fun a (_, rs) -> a + List.length rs) 0 e.q_bound;
        (* Reattach the batch's pre-crash trace context as the parent of a
           fresh span: the resubmitted task is a new scheduling life, but
           causally it continues the original enqueue. *)
        let ctx =
          Option.map
            (fun (trace, span) ->
              Strip_obs.Span.child_of ~trace ~parent:span)
            (QT.find_opt ctxs k)
        in
        Rule_manager.resubmit_recovered mgr ~ctx ~func ~key
          ~release_time:e.q_release ~created_at:e.q_created ~bound:e.q_bound)
    (List.rev !order);
  (* 6. A fresh checkpoint makes the recovered state the new durable
     baseline and truncates the replayed log. *)
  Strip_db.checkpoint db;
  {
    had_checkpoint = true;
    restored_tables = List.length cp.Checkpoint.tables;
    restored_rows;
    redo_commits = !n_commits;
    redo_ops = Redo.n_ops redo;
    requeued = !requeued;
    requeued_rows = !requeued_rows;
    released = !released;
    torn_tail = rd.Wal.torn_at <> None;
    corrupt_tail = !saw_corruption;
    cp_fallbacks;
    salvaged_ranges = !salvaged_ranges;
    salvaged_bytes = !salvaged_bytes;
    quarantined_bytes = !quarantined_bytes;
    orphan_merges = !orphan_merges;
  }

(* ------------------------------------------------------------------ *)
(* Bringing a primary back: retry on fresh instances, charge downtime.  *)

let until_up ~cost ~stats ?(crashed = true) attempt =
  let module S = Strip_sim.Stats in
  if crashed then S.record_crash stats;
  let before = Meter.snapshot () in
  let rec retry () =
    try attempt ()
    with Fault.Crashed _ ->
      S.record_crash stats;
      retry ()
  in
  let db, rs = retry () in
  List.iter
    (fun (kind, n) -> S.add_recovery_work stats kind n)
    [
      (S.Restored_rows, rs.restored_rows);
      (S.Redo_commits, rs.redo_commits);
      (S.Redo_ops, rs.redo_ops);
      (S.Requeued, rs.requeued);
      (S.Cp_fallbacks, rs.cp_fallbacks);
      (S.Salvaged_ranges, rs.salvaged_ranges);
      (S.Salvaged_bytes, rs.salvaged_bytes);
      (S.Quarantined_bytes, rs.quarantined_bytes);
      (S.Orphan_merges, rs.orphan_merges);
    ];
  let down_s =
    1e-6
    *. Strip_sim.Cost_model.charge cost (Meter.diff before (Meter.snapshot ()))
  in
  Clock.advance_by (Strip_db.clock db) down_s;
  if crashed then S.record_restart stats ~recovery_s:down_s;
  (db, down_s)

let restart ~cost ~stats ~fresh ~reinstall () =
  until_up ~cost ~stats (fun () ->
      let db = fresh () in
      match recover db ~reinstall:(fun () -> reinstall db) with
      | stats -> (db, stats)
      | exception (Fault.Crashed _ as e) ->
        (* the durable state is untouched until the post-recovery
           checkpoint installs, so the next attempt starts clean *)
        Strip_db.crash db;
        raise e)
