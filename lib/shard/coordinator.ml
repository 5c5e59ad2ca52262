open Strip_relational
open Strip_txn
open Strip_core
module Link = Strip_repl.Link
module Span = Strip_obs.Span

(* Unacked partials are re-shipped after [resend_after] seconds; each
   shard is checkpointed every [checkpoint_every] seconds by the tick. *)
let resend_after = 0.25
let checkpoint_every = 5.0

type apply = sid:int -> Transaction.t -> key:Value.t list -> delta:float -> unit

type unacked = { p : Partial.t; mutable last_sent : float }

type shard = {
  sid : int;
  mutable db : Strip_db.t;
  dq : Dqueue.t;
  mutable unacked : unacked list;  (* ship order *)
  mutable outbox : Partial.t list;  (* reversed *)
  mutable acks : (int * int) list;  (* reversed; (emitter, seq) *)
  mutable crashes : int;
  mutable last_cp : float;
}

type t = {
  apply : apply;
  shards : shard array;
  links : Link.t array array;  (* links.(src).(dst); diagonal unused *)
  mutable msgs : int;
  mutable bytes : int;
  mutable partials : int;
  mutable n_acks : int;
  mutable n_reships : int;
}

(* ------------------------------------------------------------------ *)
(* Wiring a shard's live incarnation: the sinks where durable partials
   and releases leave its rule manager, and this shard's protocol counts
   in its metrics registry (a restarted incarnation has a fresh one).   *)

let attach sh =
  let module M = Strip_obs.Metrics in
  let reg = Strip_db.metrics sh.db in
  M.probe_int reg "shard_partials_out_total" (fun () ->
      List.fold_left (fun n (_, seq) -> n + seq) 0
        (Rule_manager.partial_seqs (Strip_db.rules sh.db)));
  M.probe_int reg "shard_crashes_total" (fun () -> sh.crashes);
  M.probe_int reg "dqueue_offered_total" (fun () -> Dqueue.n_offered sh.dq);
  M.probe_int reg "dqueue_duplicates_total" (fun () ->
      Dqueue.n_duplicates sh.dq);
  M.probe_int reg "dqueue_merged_total" (fun () -> Dqueue.n_merged sh.dq);
  M.probe_int reg "dqueue_applied_total" (fun () -> Dqueue.n_applied sh.dq);
  let mgr = Strip_db.rules sh.db in
  Rule_manager.set_partial_sink mgr
    (fun ~seq ~dst ~key ~delta ~created_at ~ctx ->
      let ctx = Option.map (fun c -> (c.Span.trace, c.Span.span)) ctx in
      sh.outbox <-
        { Partial.src = sh.sid; seq; dst; key; delta; created_at; ctx }
        :: sh.outbox);
  Rule_manager.set_release_sink mgr (fun ~key -> Dqueue.remove sh.dq ~key)

(* ------------------------------------------------------------------ *)
(* Durable protocol state.                                              *)

let append_state sh =
  match Strip_db.durable sh.db with
  | None -> ()
  | Some d ->
    let w = Durable.wal d in
    let state =
      Wal.Shard_state
        {
          out_seqs = Rule_manager.partial_seqs (Strip_db.rules sh.db);
          watermarks = Dqueue.watermarks sh.dq;
          pending = Dqueue.pending_list sh.dq;
          unacked =
            List.map
              (fun u ->
                ( u.p.Partial.seq,
                  u.p.Partial.dst,
                  u.p.Partial.key,
                  u.p.Partial.delta,
                  u.p.Partial.created_at ))
              sh.unacked;
        }
    in
    ignore (Wal.append_batch w [ state ]);
    Wal.fsync w

(* A checkpoint truncates the log: put the protocol baseline back. *)
let checkpoint sh ~now =
  Strip_db.checkpoint sh.db;
  append_state sh;
  sh.last_cp <- now

type log_state = {
  out_seqs : (int * int) list;
  queue : Dqueue.t;
  outstanding : (int * int * Value.t list * float * float) list;
}

(* [(dst, seq)] folded into the per-destination maxima [seqs]. *)
let note_seq seqs (dst, seq) =
  let prev = Option.value (List.assoc_opt dst seqs) ~default:0 in
  (dst, max prev seq) :: List.remove_assoc dst seqs

(* Rebuild the cross-shard protocol state from a shard's own log.  The
   queue is replayed through a scratch Dqueue, so recovery dedups and
   merges with exactly the code the live path uses. *)
let scan_log records =
  let queue = Dqueue.create () in
  let out_seqs, unacked =
    List.fold_left
      (fun ((out_seqs, unacked) as acc) (_lsn, r) ->
        match r with
        | Wal.Shard_state s ->
          Dqueue.restore queue ~watermarks:s.watermarks ~pending:s.pending;
          (List.fold_left note_seq out_seqs s.out_seqs, List.rev s.unacked)
        | Wal.Shard_out { seq; dst; key; delta; created_at } ->
          ( note_seq out_seqs (dst, seq),
            (seq, dst, key, delta, created_at) :: unacked )
        | Wal.Shard_in { src; seq; key; delta; created_at } ->
          ignore (Dqueue.offer queue ~src ~seq ~key ~delta ~created_at);
          acc
        | Wal.Shard_release { key } ->
          Dqueue.remove queue ~key;
          acc
        | _ -> acc)
      ([], []) records
  in
  { out_seqs = List.sort compare out_seqs; queue; outstanding = List.rev unacked }

let scan_db db =
  match Strip_db.durable db with
  | Some d -> scan_log (Wal.read (Durable.wal d)).Wal.records
  | None -> invalid_arg "Coordinator.scan_db: shard has no durability layer"

(* ------------------------------------------------------------------ *)
(* Shipping.                                                            *)

let send_msg t ~src ~dst ~now msg =
  let bytes = Partial.encode msg in
  Link.send t.links.(src).(dst) ~now (Link.Blob bytes);
  t.msgs <- t.msgs + 1;
  t.bytes <- t.bytes + String.length bytes

(* ------------------------------------------------------------------ *)
(* Applying merged deltas on the owner.                                 *)

let submit_apply t sh ~key ~ctx =
  (* The body PEEKS the merged delta: with_txn_injected's abort/crash
     fault sites fire after the body returns, so a destructive take here
     could lose the delta to an abort the body never sees.  Removal
     happens in the release sink, after the applying commit's fsync. *)
  Strip_db.submit_maintenance sh.db ~at:(Strip_db.now sh.db)
    ~label:"shard_apply" ?ctx (fun txn ->
      match Dqueue.peek sh.dq ~key with
      | None -> ()
      | Some (delta, _created_at) ->
        t.apply ~sid:sh.sid txn ~key ~delta;
        Rule_manager.note_shard_release (Strip_db.rules sh.db) ~key)

(* ------------------------------------------------------------------ *)
(* After a restart in place (see the .mli for why never failover):      *)
(* rebuild protocol state, re-ship, resubmit applies.                   *)

let on_restart t sid ~log db =
  let sh = t.shards.(sid) in
  sh.crashes <- sh.crashes + 1;
  sh.db <- db;
  attach sh;
  Rule_manager.set_partial_seqs (Strip_db.rules db) log.out_seqs;
  Dqueue.restore sh.dq
    ~watermarks:(Dqueue.watermarks log.queue)
    ~pending:(Dqueue.pending_list log.queue);
  sh.outbox <- [];
  sh.acks <- [];
  (* Everything logged but unacknowledged re-ships immediately; the
     owners' (src, seq) dedup collapses any double delivery. *)
  sh.unacked <-
    List.map
      (fun (seq, dst, key, delta, created_at) ->
        let p =
          { Partial.src = sid; seq; dst; key; delta; created_at; ctx = None }
        in
        { p; last_sent = neg_infinity })
      log.outstanding;
  List.iter
    (fun key -> submit_apply t sh ~key ~ctx:None)
    (Dqueue.pending_keys sh.dq);
  (* Recovery's final checkpoint truncated the log; put the protocol
     baseline back so a second crash still finds it. *)
  append_state sh;
  sh.last_cp <- Strip_db.now db

(* ------------------------------------------------------------------ *)
(* Receive side.                                                        *)

let receive t sh ~from (m : Link.message) =
  match m.Link.payload with
  | Link.Segment _ | Link.Bootstrap _ -> ()  (* not shard-layer traffic *)
  | Link.Blob bytes -> (
    match Partial.decode bytes with
    | Partial.Ack { src = _; seq } ->
      (* seqs count per owner: retire the entry shipped to [from] *)
      sh.unacked <-
        List.filter
          (fun u -> u.p.Partial.dst <> from || u.p.Partial.seq <> seq)
          sh.unacked
    | Partial.Partial p ->
      let verdict =
        Dqueue.offer sh.dq ~src:p.Partial.src ~seq:p.Partial.seq
          ~key:p.Partial.key ~delta:p.Partial.delta
          ~created_at:p.Partial.created_at
      in
      (match verdict with
      | Dqueue.Duplicate -> ()
      | Dqueue.Merged | Dqueue.Fresh -> (
        match Strip_db.durable sh.db with
        | None -> ()
        | Some d ->
          let w = Durable.wal d in
          ignore
            (Wal.append_batch w
               [
                 Wal.Shard_in
                   {
                     src = p.Partial.src;
                     seq = p.Partial.seq;
                     key = p.Partial.key;
                     delta = p.Partial.delta;
                     created_at = p.Partial.created_at;
                   };
               ]);
          Wal.fsync w));
      (* Ack even duplicates: the previous ack may have been dropped. *)
      sh.acks <- (p.Partial.src, p.Partial.seq) :: sh.acks;
      if verdict = Dqueue.Fresh then begin
        let ctx =
          match (Strip_db.trace sh.db, p.Partial.ctx) with
          | Some _, Some (trace, parent) -> Some (Span.child_of ~trace ~parent)
          | _ -> None
        in
        submit_apply t sh ~key:p.Partial.key ~ctx
      end)

(* ------------------------------------------------------------------ *)
(* The tick.                                                            *)

let step t ~now =
  (* 0: the tick acts on every shard directly — it takes checkpoints,
     appends Shard_in records and submits applies — so, like a direct
     transaction, it first settles the zombie holders of the tasks each
     shard has dispatched *)
  Array.iter
    (fun sh -> Strip_sim.Engine.settle (Strip_db.engine sh.db))
    t.shards;
  (* 1: coordinator-driven fuzzy checkpoints (truncation is always
     immediately followed by a fresh Shard_state) *)
  Array.iter
    (fun sh ->
      if now -. sh.last_cp >= checkpoint_every && Strip_db.durable sh.db <> None
      then checkpoint sh ~now)
    t.shards;
  (* 2: flush outboxes and acks, emit order *)
  Array.iter
    (fun sh ->
      List.iter
        (fun p ->
          send_msg t ~src:sh.sid ~dst:p.Partial.dst ~now (Partial.Partial p);
          t.partials <- t.partials + 1;
          sh.unacked <- sh.unacked @ [ { p; last_sent = now } ])
        (List.rev sh.outbox);
      sh.outbox <- [];
      List.iter
        (fun (emitter, seq) ->
          send_msg t ~src:sh.sid ~dst:emitter ~now
            (Partial.Ack { src = emitter; seq });
          t.n_acks <- t.n_acks + 1)
        (List.rev sh.acks);
      sh.acks <- [])
    t.shards;
  (* 3: resend stale unacked partials (drops and crashed receivers) *)
  Array.iter
    (fun sh ->
      List.iter
        (fun u ->
          if now -. u.last_sent >= resend_after then begin
            send_msg t ~src:sh.sid ~dst:u.p.Partial.dst ~now
              (Partial.Partial u.p);
            t.n_reships <- t.n_reships + 1;
            u.last_sent <- now
          end)
        sh.unacked)
    t.shards;
  (* 4: deliver — drain every link, then process in a total order
     ((arrives_at, source shard, link seq)) so hashtable iteration and
     arrival interleaving can never perturb a fixed-seed run *)
  let arrived = ref [] in
  Array.iteri
    (fun src row ->
      Array.iteri
        (fun dst l ->
          if src <> dst then begin
            let rec drain () =
              match Link.pop_arrived l ~now with
              | None -> ()
              | Some m ->
                arrived := (m, src, dst) :: !arrived;
                drain ()
            in
            drain ()
          end)
        row)
    t.links;
  let arrived =
    List.sort
      (fun ((a : Link.message), sa, _) ((b : Link.message), sb, _) ->
        match Float.compare a.Link.arrives_at b.Link.arrives_at with
        | 0 -> (
          match Int.compare sa sb with
          | 0 -> Int.compare a.Link.seq b.Link.seq
          | c -> c)
        | c -> c)
      (List.rev !arrived)
  in
  List.iter (fun (m, src, dst) -> receive t t.shards.(dst) ~from:src m) arrived

let quiescent t =
  Array.for_all
    (fun sh ->
      Strip_sim.Engine.pending (Strip_db.engine sh.db) = 0
      && sh.outbox = [] && sh.acks = [] && sh.unacked = []
      && Dqueue.n_pending sh.dq = 0)
    t.shards
  && Array.for_all
       (fun row -> Array.for_all (fun l -> Link.in_flight l = 0) row)
       t.links

(* ------------------------------------------------------------------ *)

let create ~link ~apply dbs =
  let n = Array.length dbs in
  if n = 0 then invalid_arg "Coordinator.create: no shards";
  let shards =
    Array.mapi
      (fun sid db ->
        {
          sid;
          db;
          dq = Dqueue.create ();
          unacked = [];
          outbox = [];
          acks = [];
          crashes = 0;
          last_cp = 0.0;
        })
      dbs
  in
  let links =
    Array.init n (fun src ->
        Array.init n (fun dst -> Link.create ~id:((src * n) + dst) link))
  in
  let t =
    {
      apply;
      shards;
      links;
      msgs = 0;
      bytes = 0;
      partials = 0;
      n_acks = 0;
      n_reships = 0;
    }
  in
  Array.iter attach shards;
  t

let checkpoint_all t =
  Array.iter
    (fun sh ->
      if Strip_db.durable sh.db <> None then
        checkpoint sh ~now:(Strip_db.now sh.db))
    t.shards

let queue t i = t.shards.(i).dq
let unacked t i = List.length t.shards.(i).unacked
let msgs_sent t = t.msgs
let bytes_shipped t = t.bytes
let partials_shipped t = t.partials
let acks_sent t = t.n_acks
let reships t = t.n_reships
