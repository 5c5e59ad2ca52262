open Strip_relational
open Strip_txn
open Strip_sim
open Strip_core
module Trace = Strip_obs.Trace

type read_policy = Any | Bounded_staleness of float | Primary_only

let policy_string = function
  | Any -> "any"
  | Bounded_staleness s -> Printf.sprintf "bounded:%g" s
  | Primary_only -> "primary"

type config = {
  n_replicas : int;
  link : Link.config;
  read_policy : read_policy;
  read_rate : float;
  read_cost_s : float;
  seed : int;
}

(* The shipping / heartbeat period, in simulated seconds. *)
let ship_every = 0.05

let default_config =
  {
    n_replicas = 1;
    link = Link.default_config;
    read_policy = Any;
    read_rate = 0.0;
    read_cost_s = 0.0;
    seed = 11;
  }

type t = {
  cfg : config;
  mutable primary : Strip_db.t;
  replicas : Replica.t array;
  links : Link.t array;
  sent_end : int array;  (* per replica: durable end covered by sends *)
  read_table : string;
  read_key_col : string;
  read_keys : string array;
  read_until : float;
  rng : Random.State.t;
  mutable rr : int;  (* round-robin cursor *)
  mutable issued : int;
  mutable rd_primary : int;
  mutable rd_replica : int;
  read_lat : Strip_obs.Histogram.t;
  mutable primary_busy : float;
  mutable last_done : float;
  mutable failovers : int;
  mutable lost : int;
  mutable epoch : int;  (* current primary term, bumped at every election *)
  mutable history : (int * int) list;  (* (epoch, primary id), newest first *)
  mutable fenced : int;  (* bytes discarded from deposed primaries' tails *)
  mutable partitions : int;
  (* A partitioned-but-alive old primary awaiting its fencing at heal:
     the db handle, the term it was deposed from, and the elected
     winner's applied LSN at promotion (the fencing point). *)
  mutable isolated : (Strip_db.t * int * int) option;
  mutable ship_skips : int;
      (* shipped segments cut short by ship-time verification *)
}

let primary_durable t =
  match Strip_db.durable t.primary with
  | Some d -> d
  | None -> invalid_arg "Cluster: primary has no durability layer"

(* The image replicas are (re-)seeded from.  Under storage-fault
   injection the newest slot may have rotted, so pick the newest slot
   that still verifies; fault-free stores behave exactly as before. *)
let seed_image d =
  if Durable.media_armed d then
    Option.map
      (fun (image, lsn, time, _) -> (image, lsn, time))
      (Durable.verified_slot d)
  else
    Option.map
      (fun image -> (image, Durable.snapshot_lsn d, Durable.snapshot_time d))
      (Durable.snapshot d)

let create ?(trace_for = fun _ -> None) cfg ~primary ~read_table ~read_key_col
    ~read_keys ~read_until =
  if cfg.n_replicas < 0 then invalid_arg "Cluster.create: n_replicas < 0";
  let replicas, snap_lsn =
    if cfg.n_replicas = 0 then ([||], 0)
    else begin
      let d =
        match Strip_db.durable primary with
        | Some d -> d
        | None ->
          invalid_arg "Cluster.create: replicas need a durable primary"
      in
      let image, lsn, time =
        match seed_image d with
        | Some s -> s
        | None -> invalid_arg "Cluster.create: no checkpoint to bootstrap from"
      in
      ( Array.init cfg.n_replicas (fun i ->
            Replica.bootstrap ?trace:(trace_for i) ~id:i ~image ~lsn ~time ()),
        lsn )
    end
  in
  {
    cfg;
    primary;
    replicas;
    links = Array.init cfg.n_replicas (fun i -> Link.create ~id:i cfg.link);
    sent_end = Array.make (max 1 cfg.n_replicas) snap_lsn;
    read_table;
    read_key_col;
    read_keys;
    read_until;
    rng = Random.State.make [| cfg.seed; 0x7ead |];
    rr = 0;
    issued = 0;
    rd_primary = 0;
    rd_replica = 0;
    read_lat = Strip_obs.Histogram.create ();
    primary_busy = 0.0;
    last_done = 0.0;
    failovers = 0;
    lost = 0;
    epoch = 1;
    history = [ (1, -1) ];  (* the founding primary is node -1 *)
    fenced = 0;
    partitions = 0;
    isolated = None;
    ship_skips = 0;
  }

let primary t = t.primary
let n_replicas t = Array.length t.replicas
let replica t i = t.replicas.(i)
let link t i = t.links.(i)
let epoch t = t.epoch
let epoch_history t = List.rev t.history

let drain_one t i ~now =
  let rec go () =
    match Link.pop_arrived t.links.(i) ~now with
    | Some m ->
      Replica.receive t.replicas.(i) m;
      go ()
    | None -> ()
  in
  go ()

let drain_all t ~now =
  Array.iteri (fun i _ -> drain_one t i ~now) t.replicas

(* ------------------------------------------------------------------ *)
(* Shipping.                                                           *)

(* One shipping round from [db]'s durable log in term [epoch], tracking
   what has been covered in [cursor].  The live chain ships the cluster
   primary with the shared [t.sent_end] cursor; a deposed primary's chain
   (still running on its own engine during a partition) keeps shipping its
   own divergent log in its old term through a private cursor, so it can
   neither corrupt the live chain's bookkeeping nor — thanks to epoch
   fencing at the replicas and epoch-tagged partition windows on the
   links — rewrite anyone's state. *)
let ship_tick_from t ~db ~cursor ~epoch ~now =
  let d =
    match Strip_db.durable db with
    | Some d -> d
    | None -> invalid_arg "Cluster: shipping source has no durability layer"
  in
  let tr = Strip_db.trace db in
  (* Epoch-stamped ship events land in the shipping node's own buffer, so
     a merged cluster trace shows which term each segment left under. *)
  let trace_ship ~replica ~from_lsn ~bytes name =
    match tr with
    | None -> ()
    | Some tr ->
      Trace.instant tr ~ts:now ~tid:Trace.tid_background
        ~args:
          [
            ("replica", Trace.Int replica);
            ("from_lsn", Trace.Int from_lsn);
            ("bytes", Trace.Int bytes);
            ("epoch", Trace.Int epoch);
          ]
        name
  in
  let pwal = Durable.wal d in
  let base = Wal.base_lsn pwal and dend = Wal.durable_end pwal in
  Array.iteri
    (fun i r ->
      drain_one t i ~now;
      Meter.tick "repl_ship_segment";
      let applied = Replica.applied_lsn r in
      if applied < base then begin
        (* The primary truncated past this replica: re-seed it with the
           current checkpoint image over the same link. *)
        match seed_image d with
        | Some (image, lsn, time) ->
          Link.send ~epoch t.links.(i) ~now
            (Link.Bootstrap { image; lsn; time });
          trace_ship ~replica:i ~from_lsn:lsn ~bytes:(String.length image)
            "ship_bootstrap";
          cursor.(i) <- lsn
        | None -> ()
      end
      else begin
        (* Resend from the replica's observed frontier if what we already
           shipped has not landed after a full period (drop recovery);
           otherwise ship only the new tail. *)
        let from = if applied < cursor.(i) then applied else cursor.(i) in
        let from = max base (min from dend) in
        if from < dend then begin
          let bytes = Wal.durable_slice pwal ~from_lsn:from in
          (* Ship-time verification: never propagate rot.  A corrupt
             frame in the outgoing slice cuts the segment down to its
             clean prefix; the cursor stays at the corruption point so
             the tail is retried after the scrubber (or recovery) has
             repaired it. *)
          let bytes, upto =
            if not (Durable.media_armed d) then (bytes, dend)
            else
              match Wal.check_bytes ~base:from bytes with
              | Wal.Clean -> (bytes, dend)
              | Wal.Torn_at l | Wal.Corrupt_at l ->
                t.ship_skips <- t.ship_skips + 1;
                Durable.note_wal_detected d ~lsn:l ~len:1;
                (String.sub bytes 0 (l - from), l)
          in
          if String.length bytes > 0 then begin
            Link.send ~epoch t.links.(i) ~now
              (Link.Segment { from_lsn = from; bytes });
            trace_ship ~replica:i ~from_lsn:from ~bytes:(upto - from)
              "ship_segment"
          end;
          cursor.(i) <- upto
        end
        else
          (* Nothing new: a heartbeat advances the freshness horizon
             (no trace event — heartbeats would flood the ring). *)
          Link.send ~epoch t.links.(i) ~now
            (Link.Segment { from_lsn = dend; bytes = "" })
      end)
    t.replicas

let ship_tick t ~now =
  ship_tick_from t ~db:t.primary ~cursor:t.sent_end ~epoch:t.epoch ~now

(* ------------------------------------------------------------------ *)
(* Salvage source.                                                     *)

(* Serve [len] clean bytes at [from_lsn] from any replica whose log copy
   covers the range.  Replicas hold byte-identical copies of the shipped
   log (ship-time verification keeps rot out of the wire), so a covering
   slice that still frames cleanly is exactly the bytes the primary lost
   to media corruption. *)
let fetch_clean t ~from_lsn ~len =
  if len <= 0 then None
  else begin
    let found = ref None in
    Array.iter
      (fun r ->
        if !found = None then begin
          let rwal = Durable.wal (Replica.durable r) in
          if
            Wal.base_lsn rwal <= from_lsn
            && from_lsn + len <= Wal.durable_end rwal
          then begin
            let bytes =
              String.sub (Wal.durable_slice rwal ~from_lsn) 0 len
            in
            (* [len > 0], so a clean verdict means at least one frame *)
            if Wal.check_bytes ~base:from_lsn bytes = Wal.Clean then
              found := Some bytes
          end
        end)
      t.replicas;
    (match !found with
    | Some _ -> Meter.tick "repl_salvage_served"
    | None -> ());
    !found
  end

let schedule_shipping t ~until =
  if Array.length t.replicas = 0 then ()
  else begin
    (* The chain belongs to the node that scheduled it, not to whoever is
       primary when a tick fires: after a failover the deposed node's
       surviving chain keeps shipping its own log in its frozen term
       through a private cursor (split brain, contained by fencing). *)
    let owner = t.primary in
    let owner_epoch = t.epoch in
    let stale_cursor = lazy (Array.copy t.sent_end) in
    let clk = Strip_db.clock owner in
    Strip_db.every owner ~label:"repl_ship" ~every:ship_every ~until (fun () ->
        if t.primary == owner then ship_tick t ~now:(Clock.now clk)
        else
          ship_tick_from t ~db:owner ~cursor:(Lazy.force stale_cursor)
            ~epoch:owner_epoch ~now:(Clock.now clk))
  end

(* ------------------------------------------------------------------ *)
(* Reads.                                                              *)

let next_read_time t =
  if t.cfg.read_rate <= 0.0 then None
  else
    let tr = float_of_int (t.issued + 1) /. t.cfg.read_rate in
    if tr <= t.read_until then Some tr else None

let route t ~now =
  let n = Array.length t.replicas in
  match t.cfg.read_policy with
  | Primary_only -> `Primary
  | Any ->
    if n = 0 then `Primary
    else begin
      let k = t.rr mod (n + 1) in
      t.rr <- t.rr + 1;
      if k = 0 then `Primary else `Replica t.replicas.(k - 1)
    end
  | Bounded_staleness bound ->
    let eligible =
      Array.to_list t.replicas
      |> List.filter (fun r -> Replica.staleness r ~now < bound)
    in
    (match eligible with
    | [] -> `Primary
    | _ ->
      let k = t.rr mod List.length eligible in
      t.rr <- t.rr + 1;
      `Replica (List.nth eligible k))

let serve_read t ~now =
  drain_all t ~now;
  t.issued <- t.issued + 1;
  let target = route t ~now in
  let key = t.read_keys.(Random.State.int t.rng (Array.length t.read_keys)) in
  let sql =
    Printf.sprintf "select * from %s where %s = '%s'" t.read_table
      t.read_key_col key
  in
  let cat =
    match target with
    | `Primary -> Strip_db.catalog t.primary
    | `Replica r -> Replica.catalog r
  in
  let before = Meter.snapshot () in
  ignore (Sql_exec.exec_string cat ~env:[] sql);
  let after = Meter.snapshot () in
  let cost = Engine.cost_model (Strip_db.engine t.primary) in
  let service =
    (1e-6 *. Cost_model.charge_span cost ~before ~after) +. t.cfg.read_cost_s
  in
  let busy =
    match target with
    | `Primary -> t.primary_busy
    | `Replica r -> Replica.busy_until r
  in
  let start = Float.max now busy in
  let fin = start +. service in
  (match target with
  | `Primary ->
    t.primary_busy <- fin;
    t.rd_primary <- t.rd_primary + 1
  | `Replica r ->
    Replica.set_busy_until r fin;
    Replica.incr_reads r;
    t.rd_replica <- t.rd_replica + 1);
  Strip_obs.Histogram.add t.read_lat (fin -. now);
  t.last_done <- Float.max t.last_done fin

(* ------------------------------------------------------------------ *)
(* Failover.                                                           *)

type promotion = {
  promoted : int;
  promoted_lsn : int;
  lost_bytes : int;
  epoch : int;
}

let elect t =
  let best = ref 0 in
  Array.iteri
    (fun i r ->
      if Replica.applied_lsn r > Replica.applied_lsn t.replicas.(!best) then
        best := i)
    t.replicas;
  t.replicas.(!best)

(* The election bumps the term and every voter adopts it, so any later
   traffic from a deposed primary (still stamped with the old term) is
   fenced at the replicas. *)
let open_epoch (t : t) ~winner_id =
  t.epoch <- t.epoch + 1;
  t.history <- (t.epoch, winner_id) :: t.history;
  Array.iter (fun r -> Replica.note_epoch r t.epoch) t.replicas

let trace_promote t ~now ~(p : promotion) name =
  match Strip_db.trace t.primary with
  | None -> ()
  | Some tr ->
    Trace.instant tr ~ts:now ~tid:Trace.tid_engine
      ~args:
        [
          ("promoted", Trace.Int p.promoted);
          ("promoted_lsn", Trace.Int p.promoted_lsn);
          ("lost_bytes", Trace.Int p.lost_bytes);
          ("epoch", Trace.Int p.epoch);
        ]
      name

(* The election both promotions share: drain what was delivered, elect
   the most caught-up replica, rebuild a primary from its store, repoint
   the cluster and open a new term.  A crashed primary's connections die
   with it, so bytes on the wire are dropped and whatever the winner lacks
   is lost.  An [isolated] primary is alive behind a partition: messages
   it launched before the cut still arrive (so the wire is kept), and no
   byte is lost yet — its divergent tail is fenced when the partition
   heals, not counted as promotion loss. *)
let elect_and_recover t ~now ~mk_db ~reinstall ~isolated name =
  if Array.length t.replicas = 0 then
    invalid_arg ("Cluster." ^ name ^ ": no replicas");
  drain_all t ~now;
  if not isolated then Array.iter Link.clear_in_flight t.links;
  let old_db = t.primary and old_epoch = t.epoch in
  let winner = elect t in
  let promoted_lsn = Replica.applied_lsn winner in
  let lost_bytes =
    if isolated then 0
    else
      max 0 (Wal.durable_end (Durable.wal (primary_durable t)) - promoted_lsn)
  in
  let ndb = mk_db (Replica.durable winner) in
  let rs =
    Recovery.recover ndb
      ~salvage:(fun ~from_lsn ~len -> fetch_clean t ~from_lsn ~len)
      ~reinstall:(fun () -> reinstall ndb)
  in
  Durable.continue_counts (Replica.durable winner) ~from:(primary_durable t);
  t.primary <- ndb;
  t.failovers <- t.failovers + 1;
  t.lost <- t.lost + lost_bytes;
  open_epoch t ~winner_id:(Replica.id winner);
  if isolated then t.isolated <- Some (old_db, old_epoch, promoted_lsn);
  let p =
    { promoted = Replica.id winner; promoted_lsn; lost_bytes; epoch = t.epoch }
  in
  trace_promote t ~now ~p name;
  (ndb, rs, p)

let promote t ~now ~mk_db ~reinstall =
  elect_and_recover t ~now ~mk_db ~reinstall ~isolated:false "promote"

let begin_partition t ~now ~heal_at =
  if heal_at <= now then invalid_arg "Cluster.begin_partition: empty window";
  t.partitions <- t.partitions + 1;
  Array.iter
    (fun l ->
      Link.add_partition_window ~only_epoch:t.epoch l ~from_s:now
        ~until_s:heal_at)
    t.links

let promote_isolated t ~now ~mk_db ~reinstall =
  elect_and_recover t ~now ~mk_db ~reinstall ~isolated:true "promote_isolated"

let heal t ~now =
  match t.isolated with
  | None -> 0
  | Some (old_db, old_epoch, promoted_lsn) ->
    t.isolated <- None;
    (match Strip_db.durable old_db with
    | None -> 0
    | Some od ->
      let owal = Durable.wal od in
      (* On healing, the deposed primary announces itself once more in its
         frozen term; every replica fences the message, which is how the
         old primary discovers the higher epoch.  It then discards its
         unshipped tail — everything it committed past what the elected
         winner had applied — and rejoins as a replica (the winner's
         vacated slot, re-seeded by {!resume}). *)
      Array.iteri
        (fun i _ ->
          Link.send ~epoch:old_epoch t.links.(i) ~now
            (Link.Segment { from_lsn = Wal.durable_end owal; bytes = "" }))
        t.replicas;
      let fenced = max 0 (Wal.durable_end owal - promoted_lsn) in
      t.fenced <- t.fenced + fenced;
      (match Strip_db.trace t.primary with
      | None -> ()
      | Some tr ->
        Trace.instant tr ~ts:now ~tid:Trace.tid_engine
          ~args:
            [
              ("old_epoch", Trace.Int old_epoch);
              ("epoch", Trace.Int t.epoch);
              ("fenced_bytes", Trace.Int fenced);
            ]
          "heal");
      fenced)

let resume t ~now ~ship_until =
  let d = primary_durable t in
  (match seed_image d with
  | None -> ()
  | Some (image, lsn, time) ->
    Array.iteri
      (fun i r ->
        Replica.rebootstrap r ~image ~lsn ~time;
        Replica.note_epoch r t.epoch;
        t.sent_end.(i) <- lsn)
      t.replicas);
  (* Reads routed to the primary during the outage queue behind it. *)
  t.primary_busy <- Float.max t.primary_busy now;
  Stats.record_failover (Strip_db.stats t.primary);
  schedule_shipping t ~until:ship_until

let restarted t ~now db =
  t.primary <- db;
  t.primary_busy <- Float.max t.primary_busy now

let final_sync t ~now =
  if Array.length t.replicas > 0 then begin
    let d = primary_durable t in
    let pwal = Durable.wal d in
    Array.iteri
      (fun i r ->
        let rec go () =
          match Link.pop_arrived t.links.(i) ~now:infinity with
          | Some m ->
            Replica.receive r m;
            go ()
          | None -> ()
        in
        go ();
        (if Replica.applied_lsn r < Wal.base_lsn pwal then
           match seed_image d with
           | Some (image, lsn, time) -> Replica.rebootstrap r ~image ~lsn ~time
           | None -> ());
        if Replica.applied_lsn r < Wal.durable_end pwal then
          Replica.ingest r
            (Wal.durable_slice pwal ~from_lsn:(Replica.applied_lsn r))
            ~horizon:now)
      t.replicas
  end

(* ------------------------------------------------------------------ *)
(* Accounting.                                                         *)

let n_failovers t = t.failovers
let ship_verify_skips t = t.ship_skips
let lost_bytes_total t = t.lost
let fenced_bytes_total t = t.fenced
let n_partitions t = t.partitions
let reads_issued t = t.issued
let reads_primary t = t.rd_primary
let reads_replica t = t.rd_replica
let read_latency t = t.read_lat
let last_read_done t = t.last_done

let sum f t = Array.fold_left (fun a l -> a + f l) 0 t.links
let segments_sent t = sum Link.n_sent t
let segments_dropped t = sum Link.n_dropped t
let partition_drops_total t = sum Link.n_partition_drops t
let bytes_shipped t = sum Link.bytes_sent t
let fenced_messages_total t =
  Array.fold_left (fun a r -> a + Replica.n_fenced r) 0 t.replicas

let register_metrics t reg =
  let module M = Strip_obs.Metrics in
  M.probe_int reg "repl_replicas" (fun () -> Array.length t.replicas);
  M.probe_int reg "repl_failovers_total" (fun () -> t.failovers);
  M.probe_int reg "repl_lost_bytes_total" (fun () -> t.lost);
  M.probe_int reg "repl_epoch" (fun () -> t.epoch);
  M.probe_int reg "repl_fenced_bytes_total" (fun () -> t.fenced);
  M.probe_int reg "repl_partitions_total" (fun () -> t.partitions);
  M.probe_int reg "repl_partition_drops_total" (fun () ->
      partition_drops_total t);
  M.probe_int reg "repl_fenced_messages_total" (fun () ->
      fenced_messages_total t);
  M.probe_int reg "repl_reads_primary_total" (fun () -> t.rd_primary);
  M.probe_int reg "repl_reads_replica_total" (fun () -> t.rd_replica);
  M.probe_hist reg "repl_read_latency_s" (fun () -> t.read_lat);
  (match Strip_db.durable t.primary with
  | Some d when Durable.media_armed d ->
    M.probe_int reg "repl_ship_verify_skips_total" (fun () -> t.ship_skips)
  | _ -> ());
  M.probe_int reg "repl_segments_sent_total" (fun () -> segments_sent t);
  M.probe_int reg "repl_segments_dropped_total" (fun () -> segments_dropped t);
  M.probe_int reg "repl_bytes_shipped_total" (fun () -> bytes_shipped t);
  M.probe_hist reg "repl_cluster_lag_s" (fun () ->
      Strip_obs.Histogram.merge
        (Array.to_list (Array.map Replica.lag t.replicas)));
  let per_replica name sample =
    M.probe_family reg name (fun () ->
        Array.to_list
          (Array.map
             (fun r -> ([ ("replica", string_of_int (Replica.id r)) ], sample r))
             t.replicas))
  in
  let count f r = M.Sample_int (f r) in
  per_replica "repl_applied_lsn" (count Replica.applied_lsn);
  per_replica "repl_lag_s" (fun r -> M.Sample_hist (Replica.lag r));
  per_replica "repl_replica_segments_total" (count Replica.n_segments);
  per_replica "repl_replica_duplicates_total" (count Replica.n_duplicates);
  per_replica "repl_replica_reordered_total" (count Replica.n_reordered);
  per_replica "repl_replica_bootstraps_total" (count Replica.n_bootstraps);
  per_replica "repl_replica_reads_total" (count Replica.n_reads)
