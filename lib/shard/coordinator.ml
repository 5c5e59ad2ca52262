open Strip_relational
open Strip_txn
open Strip_core
module Link = Strip_repl.Link
module Span = Strip_obs.Span

type config = {
  link : Link.config;
  ship_every : float;
  resend_after : float;
  checkpoint_every : float option;
  cost : Strip_sim.Cost_model.t;
}

type callbacks = {
  remake : sid:int -> now:float -> Strip_db.t;
  reinstall : sid:int -> Strip_db.t -> unit;
  apply :
    sid:int ->
    Strip_db.t ->
    Transaction.t ->
    key:Value.t list ->
    delta:float ->
    unit;
  requote : sid:int -> Strip_db.t -> after:float -> unit;
  recovered : sid:int -> down_s:float -> Recovery.stats -> unit;
  retired : sid:int -> Strip_db.t -> unit;
}

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
  cfg : config;
  cb : callbacks;
  shards : shard array;
  links : Link.t array array;  (* links.(src).(dst); diagonal unused *)
  mutable msgs : int;
  mutable bytes : int;
  mutable partials : int;
  mutable n_acks : int;
  mutable n_reships : int;
}

(* ------------------------------------------------------------------ *)
(* Sinks: where durable partials and releases leave the rule manager.   *)

let install_sinks sh =
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
          next_seq = Rule_manager.partial_seq (Strip_db.rules sh.db);
          seen = Dqueue.seen_list sh.dq;
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

type proto_state = {
  mutable s_next_seq : int;
  mutable s_seen : (int * int) list;
  mutable s_pending : (Value.t list * float * float) list;
  mutable s_unacked : (int * int * Value.t list * float * float) list;
}

(* Rebuild the cross-shard protocol state from the shard's own log.  Must
   run BEFORE Recovery.recover: recovery ends with a checkpoint that
   truncates the log these records live in. *)
let scan_state dur =
  let rd = Wal.read (Durable.wal dur) in
  let st =
    { s_next_seq = 0; s_seen = []; s_pending = []; s_unacked = [] }
  in
  List.iter
    (fun (_lsn, r) ->
      match r with
      | Wal.Shard_state { next_seq; seen; pending; unacked } ->
        st.s_next_seq <- next_seq;
        st.s_seen <- seen;
        st.s_pending <- pending;
        st.s_unacked <- unacked
      | Wal.Shard_out { seq; dst; key; delta; created_at } ->
        st.s_next_seq <- max st.s_next_seq seq;
        st.s_unacked <- st.s_unacked @ [ (seq, dst, key, delta, created_at) ]
      | Wal.Shard_in { src; seq; key; delta; created_at } ->
        if not (List.mem (src, seq) st.s_seen) then begin
          st.s_seen <- st.s_seen @ [ (src, seq) ];
          let rec merge = function
            | [] -> [ (key, delta, created_at) ]
            | (k, d, c) :: tl when k = key -> (k, d +. delta, c) :: tl
            | hd :: tl -> hd :: merge tl
          in
          st.s_pending <- merge st.s_pending
        end
      | Wal.Shard_release { key } ->
        st.s_pending <- List.filter (fun (k, _, _) -> k <> key) st.s_pending
      | _ -> ())
    rd.Wal.records;
  st

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
        t.cb.apply ~sid:sh.sid sh.db txn ~key ~delta;
        Rule_manager.note_shard_release (Strip_db.rules sh.db) ~key)

(* ------------------------------------------------------------------ *)
(* Crash recovery: restart in place (see the .mli for why never         *)
(* failover), rebuild protocol state, re-ship, resubmit applies.        *)

let handle_crash t sh =
  let t_crash = Strip_db.now sh.db in
  sh.crashes <- sh.crashes + 1;
  Strip_db.crash sh.db;
  t.cb.retired ~sid:sh.sid sh.db;
  let dur =
    match Strip_db.durable sh.db with
    | Some d -> d
    | None ->
      invalid_arg "Coordinator: crashed shard has no durability layer"
  in
  let st = scan_state dur in
  let ndb, stats, down_s =
    Recovery.restart ~cost:t.cfg.cost ~condemned:(t.cb.retired ~sid:sh.sid)
      ~fresh:(fun () -> t.cb.remake ~sid:sh.sid ~now:t_crash)
      ~reinstall:(t.cb.reinstall ~sid:sh.sid) ()
  in
  sh.db <- ndb;
  install_sinks sh;
  Rule_manager.set_partial_seq (Strip_db.rules ndb) st.s_next_seq;
  Dqueue.restore sh.dq ~seen:st.s_seen ~pending:st.s_pending;
  sh.outbox <- [];
  sh.acks <- [];
  (* Everything logged but unacknowledged re-ships immediately; the
     owners' (src, seq) dedup collapses any double delivery. *)
  sh.unacked <-
    List.map
      (fun (seq, dst, key, delta, created_at) ->
        {
          p =
            {
              Partial.src = sh.sid;
              seq;
              dst;
              key;
              delta;
              created_at;
              ctx = None;
            };
          last_sent = neg_infinity;
        })
      st.s_unacked;
  List.iter
    (fun key -> submit_apply t sh ~key ~ctx:None)
    (Dqueue.pending_keys sh.dq);
  t.cb.requote ~sid:sh.sid ndb ~after:t_crash;
  (* Recovery's final checkpoint truncated the log; put the protocol
     baseline back so a second crash still finds it. *)
  append_state sh;
  sh.last_cp <- Strip_db.now ndb;
  t.cb.recovered ~sid:sh.sid ~down_s stats

let rec run_guarded t sh ~until =
  try Strip_db.run ~until sh.db with
  | Fault.Crashed _ ->
    handle_crash t sh;
    run_guarded t sh ~until

(* ------------------------------------------------------------------ *)
(* Receive side.                                                        *)

let receive t sh (m : Link.message) =
  match m.Link.payload with
  | Link.Segment _ | Link.Bootstrap _ -> ()  (* not shard-layer traffic *)
  | Link.Blob bytes -> (
    match Partial.decode bytes with
    | Partial.Ack { src = _; seq } ->
      sh.unacked <- List.filter (fun u -> u.p.Partial.seq <> seq) sh.unacked
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
  (* 1: advance every shard's engine, restarting any that crash *)
  Array.iter (fun sh -> run_guarded t sh ~until:now) t.shards;
  (* 1b: coordinator-driven fuzzy checkpoints (truncation is always
     immediately followed by a fresh Shard_state) *)
  (match t.cfg.checkpoint_every with
  | None -> ()
  | Some every ->
    Array.iter
      (fun sh ->
        if now -. sh.last_cp >= every && Strip_db.durable sh.db <> None
        then begin
          Strip_db.checkpoint sh.db;
          append_state sh;
          sh.last_cp <- now
        end)
      t.shards);
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
          if now -. u.last_sent >= t.cfg.resend_after then begin
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
  List.iter (fun (m, _src, dst) -> receive t t.shards.(dst) m) arrived

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

let run t ~until =
  let tick = max 1e-6 t.cfg.ship_every in
  let n_ticks = int_of_float (ceil (until /. tick)) in
  for i = 1 to n_ticks do
    step t ~now:(float_of_int i *. tick)
  done;
  step t ~now:until;
  (* Quiesce: in-flight partials, resends and their applies may still be
     working through the links past [until]. *)
  let now = ref until in
  let guard = ref 0 in
  while (not (quiescent t)) && !guard < 10_000 do
    incr guard;
    now := !now +. tick;
    step t ~now:!now
  done

(* ------------------------------------------------------------------ *)

let create ~cfg ~cb dbs =
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
        Array.init n (fun dst -> Link.create ~id:((src * n) + dst) cfg.link))
  in
  let t =
    {
      cfg;
      cb;
      shards;
      links;
      msgs = 0;
      bytes = 0;
      partials = 0;
      n_acks = 0;
      n_reships = 0;
    }
  in
  Array.iter install_sinks shards;
  t

let checkpoint_all t =
  Array.iter
    (fun sh ->
      if Strip_db.durable sh.db <> None then begin
        Strip_db.checkpoint sh.db;
        append_state sh;
        sh.last_cp <- Strip_db.now sh.db
      end)
    t.shards

let db t i = t.shards.(i).db
let queue t i = t.shards.(i).dq
let crashes t i = t.shards.(i).crashes
let msgs_sent t = t.msgs
let bytes_shipped t = t.bytes
let partials_shipped t = t.partials
let acks_sent t = t.n_acks
let reships t = t.n_reships
