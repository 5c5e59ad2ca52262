open Strip_relational
open Strip_txn
open Strip_core
module Trace = Strip_obs.Trace
module Span = Strip_obs.Span

type t = {
  rid : int;
  mutable cat : Catalog.t;
  mutable redo : Redo.t;
  mutable wal : Wal.t;
  mutable dur : Durable.t;
  mutable applied : int;
  mutable horizon_t : float;
  mutable epoch : int;  (* highest primary term seen; lower terms fence *)
  mutable pending : Link.message list;  (* out-of-order segments, buffered *)
  lag_h : Strip_obs.Histogram.t;
  mutable segments : int;
  mutable duplicates : int;
  mutable reordered : int;
  mutable bootstraps : int;
  mutable fenced : int;
  mutable commits : int;
  mutable busy : float;
  mutable reads : int;
  trace : Trace.t option;  (* this node's span buffer, when tracing *)
  (* primary trace contexts by txid, harvested from Trace_note records in
     the shipped log; consumed when the matching Commit is applied *)
  txn_ctx : (int, int * int) Hashtbl.t;
}

let restore_image ~image ~lsn ~time =
  let cat = Catalog.create () in
  let cp = Checkpoint.decode image in
  Checkpoint.restore_tables cp cat;
  Meter.tick_n "repl_bootstrap_row" (Checkpoint.total_rows cp);
  let wal = Wal.create ~base_lsn:lsn () in
  let dur = Durable.create ~wal () in
  Durable.install_checkpoint dur ~encoded:image ~lsn ~time;
  (cat, wal, dur, cp.Checkpoint.taken_at)

let bootstrap ?trace ~id ~image ~lsn ~time () =
  let cat, wal, dur, taken_at = restore_image ~image ~lsn ~time in
  {
    rid = id;
    cat;
    redo = Redo.create ~meter:"repl_apply_op" cat;
    wal;
    dur;
    applied = lsn;
    horizon_t = taken_at;
    epoch = 0;
    pending = [];
    lag_h = Strip_obs.Histogram.create ();
    segments = 0;
    duplicates = 0;
    reordered = 0;
    bootstraps = 0;
    fenced = 0;
    commits = 0;
    busy = 0.0;
    reads = 0;
    trace;
    txn_ctx = Hashtbl.create 16;
  }

let rebootstrap t ~image ~lsn ~time =
  let cat, wal, dur, taken_at = restore_image ~image ~lsn ~time in
  t.cat <- cat;
  t.redo <- Redo.create ~meter:"repl_apply_op" cat;
  t.wal <- wal;
  t.dur <- dur;
  t.applied <- lsn;
  t.horizon_t <- max t.horizon_t taken_at;
  t.pending <- [];
  Hashtbl.reset t.txn_ctx;
  t.bootstraps <- t.bootstraps + 1

(* Decode and apply everything newly grafted onto the local log copy.
   [at] is the apply wall-time (simulated) stamped on trace events. *)
let apply_tail t ~at =
  let rd = Wal.read_from t.wal ~lsn:t.applied in
  List.iter
    (fun (_lsn, record) ->
      match record with
      | Wal.Commit { txid; ops; _ } ->
        t.commits <- t.commits + 1;
        Redo.apply_commit t.redo ops;
        (match t.trace with
        | None -> ()
        | Some tr ->
          (* The apply span is a child of the primary's commit span when
             its Trace_note preceded this Commit in the shipped log; the
             epoch tag shows which primary term shipped it. *)
          let link_args =
            match Hashtbl.find_opt t.txn_ctx txid with
            | None -> []
            | Some (trace, parent) ->
              Hashtbl.remove t.txn_ctx txid;
              Span.args (Span.child_of ~trace ~parent)
          in
          Trace.instant tr ~ts:at ~tid:Trace.tid_engine
            ~args:
              ([
                 ("replica", Trace.Int t.rid);
                 ("txid", Trace.Int txid);
                 ("ops", Trace.Int (List.length ops));
                 ("epoch", Trace.Int t.epoch);
               ]
              @ link_args)
            "apply")
      | Wal.Trace_note { subject = Wal.For_txn txid; trace; span } ->
        if t.trace <> None then Hashtbl.replace t.txn_ctx txid (trace, span)
      | Wal.Trace_note { subject = Wal.For_uq _; _ } ->
        (* queued-batch contexts matter to crash recovery at promotion *)
        ()
      | Wal.Uq_enqueue _ | Wal.Uq_merge _ | Wal.Uq_release _
      | Wal.Checkpoint_mark _ ->
        (* Queue transitions matter only at promotion, when Recovery
           rebuilds the pending queue from this same log copy. *)
        ()
      | Wal.Shard_out _ | Wal.Shard_in _ | Wal.Shard_release _
      | Wal.Shard_state _ ->
        (* Cross-shard protocol records matter only to the shard's own
           coordinator; a replica replays just the data commits. *)
        ())
    rd.Wal.records;
  t.applied <- Wal.durable_end t.wal

let ingest t bytes ~horizon =
  Wal.install_bytes t.wal bytes;
  apply_tail t ~at:horizon;
  t.horizon_t <- max t.horizon_t horizon

let rec receive t (msg : Link.message) =
  (* Epoch fencing: a message from a lower term than the highest this
     replica has seen comes from a deposed primary — drop it outright so a
     partitioned-but-alive old primary can never rewrite a promoted
     timeline.  Higher terms are adopted on sight. *)
  if msg.Link.epoch < t.epoch then begin
    t.fenced <- t.fenced + 1;
    match t.trace with
    | None -> ()
    | Some tr ->
      Trace.instant tr ~ts:msg.Link.arrives_at ~tid:Trace.tid_engine
        ~args:
          [
            ("replica", Trace.Int t.rid);
            ("msg_epoch", Trace.Int msg.Link.epoch);
            ("epoch", Trace.Int t.epoch);
          ]
        "fence"
  end
  else begin
    if msg.Link.epoch > t.epoch then t.epoch <- msg.Link.epoch;
    receive_unfenced t msg
  end

and receive_unfenced t (msg : Link.message) =
  match msg.Link.payload with
  | Link.Blob _ ->
    (* shard-layer traffic; a replica is never its addressee *)
    t.duplicates <- t.duplicates + 1
  | Link.Bootstrap { image; lsn; time } ->
    if lsn > t.applied then rebootstrap t ~image ~lsn ~time
    else t.duplicates <- t.duplicates + 1;
    retry_pending t
  | Link.Segment { from_lsn; bytes = "" } ->
    (* Heartbeat: the primary's durable log ended at [from_lsn] when this
       was sent.  If we have all of it, our state is fresh as of then. *)
    if from_lsn <= t.applied then
      t.horizon_t <- max t.horizon_t msg.Link.sent_at
  | Link.Segment { from_lsn; bytes } ->
    let end_ = from_lsn + String.length bytes in
    if end_ <= t.applied then begin
      (* Entirely old bytes — but still proof of freshness at send time. *)
      t.duplicates <- t.duplicates + 1;
      t.horizon_t <- max t.horizon_t msg.Link.sent_at
    end
    else if from_lsn > t.applied then begin
      (* A gap: an earlier segment was dropped or is still in flight. *)
      t.reordered <- t.reordered + 1;
      t.pending <- msg :: t.pending
    end
    else begin
      let skip = t.applied - from_lsn in
      Wal.install_bytes t.wal
        (String.sub bytes skip (String.length bytes - skip));
      (* applies happen at arrival, but freshness only reaches send time *)
      apply_tail t ~at:msg.Link.arrives_at;
      t.horizon_t <- max t.horizon_t msg.Link.sent_at;
      t.segments <- t.segments + 1;
      Strip_obs.Histogram.add t.lag_h (msg.Link.arrives_at -. msg.Link.sent_at);
      retry_pending t
    end

and retry_pending t =
  (* Oldest (lowest seq) first so contiguous runs drain in one pass. *)
  let ready, still =
    List.partition
      (fun (m : Link.message) ->
        match m.Link.payload with
        | Link.Segment { from_lsn; bytes } ->
          from_lsn <= t.applied && from_lsn + String.length bytes > t.applied
        | Link.Bootstrap _ | Link.Blob _ -> false)
      t.pending
  in
  match ready with
  | [] ->
    (* Drop buffered segments made obsolete by a bootstrap or duplicate. *)
    t.pending <-
      List.filter
        (fun (m : Link.message) ->
          match m.Link.payload with
          | Link.Segment { from_lsn; bytes } ->
            from_lsn + String.length bytes > t.applied
          | Link.Bootstrap _ | Link.Blob _ -> false)
        still
  | _ ->
    let ready =
      List.sort (fun (a : Link.message) b -> Int.compare a.seq b.seq) ready
    in
    t.pending <- still;
    List.iter (receive t) ready

let id t = t.rid
let catalog t = t.cat
let durable t = t.dur
let applied_lsn t = t.applied
let horizon t = t.horizon_t
let epoch t = t.epoch
let note_epoch t e = if e > t.epoch then t.epoch <- e
let n_fenced t = t.fenced
let staleness t ~now = now -. t.horizon_t
let lag t = t.lag_h
let n_segments t = t.segments
let n_duplicates t = t.duplicates
let n_reordered t = t.reordered
let n_bootstraps t = t.bootstraps
let n_commits_applied t = t.commits
let busy_until t = t.busy
let set_busy_until t v = t.busy <- v
let n_reads t = t.reads
let incr_reads t = t.reads <- t.reads + 1
