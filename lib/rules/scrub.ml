open Strip_relational
open Strip_txn

type fetch = from_lsn:int -> len:int -> string option

type t = {
  mutable passes : int;
  mutable bytes_scanned : int;
  mutable slot_bytes : int;
  mutable wal_corruptions : int;
  mutable cp_corruptions : int;
  mutable repaired_replica : int;
  mutable repaired_checkpoint : int;
  mutable salvaged_bytes : int;
  mutable expunged_bytes : int;
  mutable cursors : (Durable.t * Durable.cursor) list;
      (* each store's place in its scrub cycle; a failover moves the
         scrubber to another store, whose cycle starts afresh *)
}

let create () =
  {
    passes = 0;
    bytes_scanned = 0;
    slot_bytes = 0;
    wal_corruptions = 0;
    cp_corruptions = 0;
    repaired_replica = 0;
    repaired_checkpoint = 0;
    salvaged_bytes = 0;
    expunged_bytes = 0;
    cursors = [];
  }

let bytes_scanned t = t.bytes_scanned
let repaired_replica t = t.repaired_replica
let repaired_checkpoint t = t.repaired_checkpoint
let salvaged_bytes t = t.salvaged_bytes
let expunged_bytes t = t.expunged_bytes

let report_corruption db ~what ~lsn ~len =
  match Strip_db.trace db with
  | None -> ()
  | Some tr ->
    Strip_obs.Trace.instant tr ~ts:(Strip_db.now db) ~cat:"storage"
      ~args:[ ("lsn", Strip_obs.Trace.Int lsn); ("len", Strip_obs.Trace.Int len) ]
      what

(* Bytes one scrubber pass re-reads at most: a fixed pace, however large
   the store has grown. *)
let budget = 128 * 1024

let cursor t d =
  match List.assq_opt d t.cursors with
  | Some c -> c
  | None ->
    let c = Durable.cursor () in
    t.cursors <- (d, c) :: t.cursors;
    c

(* One pass: a budgeted step of the store's scrub cycle, then the repair
   ladder for whatever it found.  Returns whether the step closed the
   cycle. *)
let pass ?fetch t db d =
  let w = Durable.wal d in
  t.passes <- t.passes + 1;
  Meter.tick "scrub_pass";
  let st = Durable.scrub_step d (cursor t d) ~budget in
  t.bytes_scanned <- t.bytes_scanned + st.Durable.wal_bytes;
  t.slot_bytes <- t.slot_bytes + st.Durable.slot_bytes;
  Meter.tick_n "scrub_byte" (st.Durable.wal_bytes + st.Durable.slot_bytes);
  (* Ladder rung 1: re-fetch clean bytes for each corrupt range from a
     replica whose log copy covers it, splicing them in place. *)
  let unrepaired =
    List.filter
      (fun (l, r) ->
        let len = max 1 (r - l) in
        t.wal_corruptions <- t.wal_corruptions + 1;
        Durable.note_wal_detected d ~lsn:l ~len;
        report_corruption db ~what:"wal_corruption" ~lsn:l ~len;
        match Option.bind fetch (fun f -> f ~from_lsn:l ~len:(r - l)) with
        | Some bytes ->
          Wal.splice w ~lsn:l ~bytes;
          Durable.note_wal_repaired d ~lsn:l ~len;
          Meter.tick_n "salvage_byte" (r - l);
          t.repaired_replica <- t.repaired_replica + 1;
          t.salvaged_bytes <- t.salvaged_bytes + (r - l);
          false
        | None -> true)
      st.Durable.wal_ranges
  in
  let bad_slots = List.length st.Durable.bad_slots in
  if bad_slots > 0 then begin
    t.cp_corruptions <- t.cp_corruptions + bad_slots;
    report_corruption db ~what:"checkpoint_corruption"
      ~lsn:(Durable.snapshot_lsn d) ~len:bad_slots
  end;
  (* Ladder rung 2: checkpoint-based repair.  The live in-memory state
     is clean (corrupt at-rest bytes never influenced it), so a fresh
     checkpoint both replaces any rotted slot and lets the corrupt log
     ranges be truncated away. *)
  if unrepaired <> [] || bad_slots > 0 then begin
    Strip_db.checkpoint db;
    if unrepaired <> [] then begin
      (* drop the retained history down to the fresh image: the
         corrupt ranges leave the log for good.  The cost of this rung
         is the whole truncated span — every byte below the new image
         loses its redo capability, not just the rotten range — which
         is what makes replica-served splicing the preferred rung. *)
      let old_base = Wal.base_lsn w in
      let lsn = Durable.snapshot_lsn d in
      if lsn > old_base then Wal.truncate_to w ~lsn;
      Durable.note_truncated d ~below:lsn;
      t.expunged_bytes <- t.expunged_bytes + max 0 (lsn - old_base);
      List.iter
        (fun (l, r) ->
          Meter.tick_n "quarantine_byte" (r - l);
          t.repaired_checkpoint <- t.repaired_checkpoint + 1)
        unrepaired
    end;
    t.repaired_checkpoint <- t.repaired_checkpoint + bad_slots;
    List.iter (Durable.note_cp_repaired d) st.Durable.bad_slots
  end;
  Durable.note_scrub_pass d ~budget;
  st.Durable.closed

let scrub ?fetch t db =
  match Strip_db.durable db with
  | None -> ()
  | Some d -> ignore (pass ?fetch t db d)

let scrub_cycle ?fetch t db =
  match Strip_db.durable db with
  | None -> ()
  | Some d ->
    Durable.rewind (cursor t d);
    while not (pass ?fetch t db d) do
      ()
    done

let register_metrics t reg =
  List.iter
    (fun (name, f) ->
      Strip_obs.Metrics.probe_int reg ("scrub_" ^ name ^ "_total") f)
    [
      ("passes", fun () -> t.passes);
      ("bytes", fun () -> t.bytes_scanned);
      ("slot_bytes", fun () -> t.slot_bytes);
      ("wal_corruptions", fun () -> t.wal_corruptions);
      ("cp_corruptions", fun () -> t.cp_corruptions);
      ("repaired_replica", fun () -> t.repaired_replica);
      ("repaired_checkpoint", fun () -> t.repaired_checkpoint);
      ("salvaged_bytes", fun () -> t.salvaged_bytes);
      ("expunged_bytes", fun () -> t.expunged_bytes);
    ]
