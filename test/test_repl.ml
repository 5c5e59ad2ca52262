(* Replication: WAL cursor reads, the simulated shipping link, idempotent
   replica apply under duplication/reordering/truncation, deterministic
   failover promotion, and read routing policies. *)

open Strip_relational
open Strip_txn
open Strip_core
open Strip_pta
open Strip_repl

(* ------------------------------------------------------------------ *)
(* Wal.read_from: the shipping/redo cursor *)

let test_wal_read_from () =
  let w = Wal.create () in
  let lsns = List.map (Wal.append w) Test_recovery.sample_records in
  Wal.fsync w;
  let mid = List.nth lsns 2 in
  let r = Wal.read_from w ~lsn:mid in
  Alcotest.(check (option int)) "clean tail" None r.Wal.torn_at;
  Alcotest.(check (list int)) "only records at or past the cursor"
    (List.filter (fun l -> l >= mid) lsns)
    (List.map fst r.Wal.records);
  List.iter2
    (fun expected (_, got) ->
      Alcotest.(check bool) "suffix records round-trip" true (expected = got))
    (List.filteri (fun i _ -> List.nth lsns i >= mid)
       Test_recovery.sample_records)
    r.Wal.records;
  Alcotest.(check (list int)) "cursor at the base is a full read"
    (List.map fst (Wal.read w).Wal.records)
    (List.map fst (Wal.read_from w ~lsn:(Wal.base_lsn w)).Wal.records);
  Alcotest.(check int) "cursor at the end reads nothing" 0
    (List.length (Wal.read_from w ~lsn:(Wal.durable_end w)).Wal.records);
  let rejected lsn =
    match Wal.read_from w ~lsn with
    | exception Wal.Out_of_range _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "cursor before the base rejected" true (rejected (-1));
  Alcotest.(check bool) "cursor past the end rejected" true
    (rejected (Wal.durable_end w + 1));
  (* truncation moves the validity window with the base *)
  Wal.truncate_to w ~lsn:mid;
  Alcotest.(check bool) "cursor below the new base rejected" true (rejected 0);
  Alcotest.(check int) "suffix still readable after truncation"
    (List.length (List.filter (fun l -> l >= mid) lsns))
    (List.length (Wal.read_from w ~lsn:mid).Wal.records)

let test_wal_slice_install_roundtrip () =
  let w = Wal.create () in
  let lsns = List.map (Wal.append w) Test_recovery.sample_records in
  Wal.fsync w;
  let mid = List.nth lsns 2 in
  (* a replica's log is literally the primary's bytes from its bootstrap
     LSN on: slice here, install into a fresh log based there *)
  let w2 = Wal.create ~base_lsn:mid () in
  Wal.install_bytes w2 (Wal.durable_slice w ~from_lsn:mid);
  let a = Wal.read_from w ~lsn:mid and b = Wal.read w2 in
  Alcotest.(check (list int)) "same LSNs" (List.map fst a.Wal.records)
    (List.map fst b.Wal.records);
  Alcotest.(check bool) "same records" true
    (List.map snd a.Wal.records = List.map snd b.Wal.records);
  Alcotest.(check int) "same end" (Wal.durable_end w) (Wal.durable_end w2)

(* ------------------------------------------------------------------ *)
(* Link: deterministic delivery, serialization reordering, drops *)

let seg ~from_lsn bytes = Link.Segment { from_lsn; bytes }

let test_link_delivery_order () =
  let cfg =
    {
      Link.latency_s = 0.01;
      bandwidth_bps = 100.0;
      drop_rate = 0.0;
      seed = 1;
    }
  in
  let l = Link.create cfg in
  (* 100 bytes at 100 B/s serializes for 1 s; a later 1-byte message
     overtakes it *)
  Link.send l ~now:0.0 (seg ~from_lsn:0 (String.make 100 'x'));
  Link.send l ~now:0.5 (seg ~from_lsn:100 "y");
  Alcotest.(check bool) "nothing before the first arrival" true
    (Link.pop_arrived l ~now:0.4 = None);
  (match Link.pop_arrived l ~now:2.0 with
  | Some { payload = Link.Segment { from_lsn; _ }; seq; _ } ->
    Alcotest.(check int) "small late message arrives first" 100 from_lsn;
    Alcotest.(check int) "send order preserved in seq" 1 seq
  | _ -> Alcotest.fail "expected the second segment first");
  (match Link.pop_arrived l ~now:2.0 with
  | Some { payload = Link.Segment { from_lsn; _ }; _ } ->
    Alcotest.(check int) "large message arrives second" 0 from_lsn
  | _ -> Alcotest.fail "expected the first segment second");
  Alcotest.(check int) "queue drained" 0 (Link.in_flight l);
  Alcotest.(check int) "both delivered" 2 (Link.n_delivered l)

let test_link_drops_deterministic () =
  let cfg = { Link.default_config with drop_rate = 0.3; seed = 42 } in
  let run () =
    let l = Link.create ~id:3 cfg in
    for i = 0 to 99 do
      Link.send l ~now:(float_of_int i) (seg ~from_lsn:i "z")
    done;
    (Link.n_sent l, Link.n_dropped l)
  in
  let s1, d1 = run () and s2, d2 = run () in
  Alcotest.(check int) "all sends counted" 100 s1;
  Alcotest.(check bool) "some messages dropped" true (d1 > 0 && d1 < 100);
  Alcotest.(check (pair int int)) "same seed, same drops" (s1, d1) (s2, d2)

let test_link_partition_window () =
  let l = Link.create { Link.default_config with drop_rate = 0.0 } in
  Link.add_partition_window l ~from_s:1.0 ~until_s:2.0;
  Link.send l ~now:0.5 (seg ~from_lsn:0 "a");
  Link.send l ~now:1.0 (seg ~from_lsn:1 "b");
  Link.send l ~now:1.99 (seg ~from_lsn:2 "c");
  Link.send l ~now:2.0 (seg ~from_lsn:3 "d");
  Alcotest.(check int) "sends inside the window are cut" 2
    (Link.n_partition_drops l);
  Alcotest.(check int) "partition drops are not random loss" 0
    (Link.n_dropped l);
  Alcotest.(check int) "sends outside the window survive" 2 (Link.in_flight l);
  Alcotest.(check bool) "window queryable while open" true
    (Link.partitioned l ~now:1.5 ~epoch:0);
  Alcotest.(check bool) "healed at the right (open) edge" false
    (Link.partitioned l ~now:2.0 ~epoch:0)

let test_link_window_boundary_and_rng () =
  (* Regression: the window is half-open [from, until) — a send stamped
     exactly at [until_s] is already healed and must be delivered, while
     the opening edge [from_s] is inside the cut. *)
  let l = Link.create { Link.default_config with drop_rate = 0.0 } in
  Link.add_partition_window l ~from_s:1.0 ~until_s:2.0;
  Link.send l ~now:1.0 (seg ~from_lsn:0 "open-edge");
  Link.send l ~now:2.0 (seg ~from_lsn:1 "close-edge");
  Alcotest.(check int) "from_s is cut" 1 (Link.n_partition_drops l);
  Alcotest.(check int) "until_s is delivered" 1 (Link.in_flight l);
  (match Link.pop_arrived l ~now:10.0 with
  | Some { payload = Link.Segment { from_lsn; _ }; sent_at; _ } ->
    Alcotest.(check int) "the boundary send got through" 1 from_lsn;
    Alcotest.(check (float 0.0)) "stamped at the boundary" 2.0 sent_at
  | _ -> Alcotest.fail "boundary send lost");
  (* Partitioned sends must still consume their RNG draw: the loss
     pattern after the window matches a windowless link send-for-send. *)
  let cfg = { Link.default_config with drop_rate = 0.5; seed = 11 } in
  let outcomes with_window =
    let l = Link.create ~id:9 cfg in
    if with_window then Link.add_partition_window l ~from_s:2.0 ~until_s:5.0;
    List.init 10 (fun i ->
        let d0 = Link.n_dropped l and f0 = Link.in_flight l in
        Link.send l ~now:(float_of_int i) (seg ~from_lsn:i "r");
        if Link.n_dropped l > d0 then "dropped"
        else if Link.in_flight l > f0 then "delivered"
        else "cut")
  in
  let windowless = outcomes false and windowed = outcomes true in
  List.iteri
    (fun i (a, b) ->
      if float_of_int i < 2.0 || float_of_int i >= 5.0 then
        Alcotest.(check string)
          (Printf.sprintf "send %d: same fate with and without window" i)
          a b
      else
        Alcotest.(check string)
          (Printf.sprintf "send %d: cut by the window" i)
          "cut" b)
    (List.combine windowless windowed)

let test_link_epoch_tagged_window () =
  let l = Link.create { Link.default_config with drop_rate = 0.0 } in
  (* fence only term 1: the deposed primary's traffic dies on the wire
     while the new term flows over the same link *)
  Link.add_partition_window ~only_epoch:1 l ~from_s:0.0 ~until_s:10.0;
  Link.send ~epoch:1 l ~now:1.0 (seg ~from_lsn:0 "old");
  Link.send ~epoch:2 l ~now:1.0 (seg ~from_lsn:0 "new");
  Alcotest.(check int) "the old term is cut" 1 (Link.n_partition_drops l);
  Alcotest.(check int) "the new term flows" 1 (Link.in_flight l);
  Alcotest.(check bool) "window holds for the tagged epoch" true
    (Link.partitioned l ~now:5.0 ~epoch:1);
  Alcotest.(check bool) "window ignores other epochs" false
    (Link.partitioned l ~now:5.0 ~epoch:2)

let test_link_drop_burst () =
  let l = Link.create { Link.default_config with drop_rate = 0.0 } in
  Link.add_drop_burst l ~from_s:10.0 ~until_s:20.0 ~rate:1.0;
  for i = 0 to 29 do
    Link.send l ~now:(float_of_int i) (seg ~from_lsn:i "x")
  done;
  Alcotest.(check int) "only sends inside the burst were dropped" 10
    (Link.n_dropped l);
  Alcotest.(check int) "bursts are random loss, not partition drops" 0
    (Link.n_partition_drops l);
  Alcotest.(check int) "the rest are in flight" 20 (Link.in_flight l);
  Alcotest.(check bool) "burst rate is validated" true
    (match Link.add_drop_burst l ~from_s:0.0 ~until_s:1.0 ~rate:1.5 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_link_random_windows () =
  let gen seed =
    Link.random_windows ~seed ~rate_per_s:0.2 ~mean_s:1.0 ~until:60.0
  in
  let a = gen 5 in
  Alcotest.(check bool) "pure in the seed" true (a = gen 5);
  Alcotest.(check bool) "some windows generated" true (a <> []);
  List.iter
    (fun (f, u) ->
      Alcotest.(check bool) "ordered and clipped to the horizon" true
        (0.0 <= f && f < u && u <= 60.0))
    a;
  Alcotest.(check bool) "a different seed draws differently" true (a <> gen 6)

(* ------------------------------------------------------------------ *)
(* Replica: bootstrap + apply, idempotent under duplication/reordering *)

let update_stock db ~at symbol price =
  Strip_db.submit_update db ~at (fun txn ->
      ignore
        (Transaction.exec txn
           (Printf.sprintf "update stocks set price = %g where symbol = '%s'"
              price symbol)))

let view_rows cat =
  Query.rows
    (Sql_exec.query cat ~env:[]
       "select comp, price from comp_prices order by comp")

let primary_with_tail () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db = Test_recovery.setup_durable_db durable in
  Strip_db.checkpoint db;
  update_stock db ~at:0.0 "S1" 31.0;
  update_stock db ~at:0.3 "S2" 38.0;
  (* run past the 1 s unique delay so the maintenance commit is in the
     log too *)
  Strip_db.run db;
  (db, durable)

let bootstrap_replica durable =
  let image =
    match Durable.snapshot durable with
    | Some s -> s
    | None -> Alcotest.fail "no checkpoint installed"
  in
  Replica.bootstrap ~id:0 ~image ~lsn:(Durable.snapshot_lsn durable) ~time:0.0
    ()

let deliver ?(epoch = 0) r ~seq ~sent_at payload =
  Replica.receive r
    { Link.sent_at; arrives_at = sent_at +. 0.02; seq; epoch; payload }

let test_replica_joins_mid_stream () =
  let db, durable = primary_with_tail () in
  (* the replica joins from the checkpoint image, then receives the log
     tail written after it *)
  let r = bootstrap_replica durable in
  let wal = Durable.wal durable in
  Alcotest.(check bool) "there is a tail to ship" true
    (Wal.durable_end wal > Replica.applied_lsn r);
  let tail = Wal.durable_slice wal ~from_lsn:(Replica.applied_lsn r) in
  deliver r ~seq:0 ~sent_at:1.5 (seg ~from_lsn:(Replica.applied_lsn r) tail);
  Alcotest.(check int) "applied through the primary's durable end"
    (Wal.durable_end wal) (Replica.applied_lsn r);
  Alcotest.(check bool) "commits were replayed" true
    (Replica.n_commits_applied r > 0);
  Alcotest.(check bool) "replica view converged to the primary" true
    (view_rows (Strip_db.catalog db) = view_rows (Replica.catalog r))

let test_replica_duplicate_and_reordered_apply () =
  let db, durable = primary_with_tail () in
  let r = bootstrap_replica durable in
  let wal = Durable.wal durable in
  let base = Replica.applied_lsn r in
  (* cut the tail at a frame boundary *)
  let mid =
    match (Wal.read_from wal ~lsn:base).Wal.records with
    | _ :: (l, _) :: _ -> l
    | _ -> Alcotest.fail "expected at least two tail records"
  in
  let tail = Wal.durable_slice wal ~from_lsn:base in
  let s1 = String.sub tail 0 (mid - base) in
  let s2 = String.sub tail (mid - base) (String.length tail - (mid - base)) in
  (* the second half arrives first: a gap, buffered not applied *)
  deliver r ~seq:1 ~sent_at:1.1 (seg ~from_lsn:mid s2);
  Alcotest.(check int) "gap buffered, nothing applied" base
    (Replica.applied_lsn r);
  Alcotest.(check int) "reordering observed" 1 (Replica.n_reordered r);
  (* the gap fills: both halves apply in order *)
  deliver r ~seq:0 ~sent_at:1.0 (seg ~from_lsn:base s1);
  Alcotest.(check int) "contiguous prefix applied through the end"
    (Wal.durable_end wal) (Replica.applied_lsn r);
  let commits = Replica.n_commits_applied r in
  (* optimistic resend: the same bytes again are recognized and skipped *)
  deliver r ~seq:2 ~sent_at:1.2 (seg ~from_lsn:base s1);
  deliver r ~seq:3 ~sent_at:1.3 (seg ~from_lsn:mid s2);
  Alcotest.(check int) "duplicates counted" 2 (Replica.n_duplicates r);
  Alcotest.(check int) "no commit applied twice" commits
    (Replica.n_commits_applied r);
  Alcotest.(check bool) "state still equals the primary's" true
    (view_rows (Strip_db.catalog db) = view_rows (Replica.catalog r))

let test_replica_reseeds_after_truncation () =
  let db, durable = primary_with_tail () in
  let r = bootstrap_replica durable in
  (* the primary checkpoints again and truncates its log: the bytes the
     replica is missing no longer exist, so it must re-seed from the new
     image *)
  Strip_db.checkpoint db;
  let wal = Durable.wal durable in
  Alcotest.(check bool) "truncation outran the replica" true
    (Wal.base_lsn wal > Replica.applied_lsn r);
  let image = Option.get (Durable.snapshot durable) in
  deliver r ~seq:0 ~sent_at:2.0
    (Link.Bootstrap
       { image; lsn = Durable.snapshot_lsn durable; time = 2.0 });
  Alcotest.(check int) "re-seed counted" 1 (Replica.n_bootstraps r);
  Alcotest.(check int) "caught up to the new image"
    (Durable.snapshot_lsn durable) (Replica.applied_lsn r);
  Alcotest.(check bool) "state equals the primary's" true
    (view_rows (Strip_db.catalog db) = view_rows (Replica.catalog r));
  (* a stale image (at or below the applied frontier) is a duplicate *)
  deliver r ~seq:1 ~sent_at:2.1
    (Link.Bootstrap
       { image; lsn = Durable.snapshot_lsn durable; time = 2.0 });
  Alcotest.(check int) "stale image skipped" 1 (Replica.n_bootstraps r)

let test_replica_heartbeat_staleness () =
  let _db, durable = primary_with_tail () in
  let r = bootstrap_replica durable in
  let wal = Durable.wal durable in
  let tail = Wal.durable_slice wal ~from_lsn:(Replica.applied_lsn r) in
  deliver r ~seq:0 ~sent_at:1.5 (seg ~from_lsn:(Replica.applied_lsn r) tail);
  Alcotest.(check (float 1e-9)) "segment sets the horizon to its send time"
    1.5 (Replica.horizon r);
  (* an empty segment is a heartbeat: no bytes, fresher horizon *)
  deliver r ~seq:1 ~sent_at:5.0 (seg ~from_lsn:(Replica.applied_lsn r) "");
  Alcotest.(check (float 1e-9)) "heartbeat advances the horizon" 5.0
    (Replica.horizon r);
  Alcotest.(check (float 1e-9)) "staleness measures from the horizon" 0.1
    (Replica.staleness r ~now:5.1);
  Alcotest.(check bool) "staleness is positive under link latency" true
    (Replica.staleness r ~now:(5.0 +. 0.02) > 0.0)

let test_replica_fencing () =
  let _db, durable = primary_with_tail () in
  let r = bootstrap_replica durable in
  let wal = Durable.wal durable in
  let base = Replica.applied_lsn r in
  let tail = Wal.durable_slice wal ~from_lsn:base in
  Alcotest.(check int) "bootstrap starts unstamped" 0 (Replica.epoch r);
  (* the replica learns term 2 through the election path, then the
     deposed term-1 primary's segment arrives: fenced, not applied *)
  Replica.note_epoch r 2;
  deliver ~epoch:1 r ~seq:0 ~sent_at:1.0 (seg ~from_lsn:base tail);
  Alcotest.(check int) "stale term fenced" 1 (Replica.n_fenced r);
  Alcotest.(check int) "fenced bytes were not applied" base
    (Replica.applied_lsn r);
  (* a higher term is adopted on sight and its bytes apply *)
  deliver ~epoch:3 r ~seq:1 ~sent_at:1.1 (seg ~from_lsn:base tail);
  Alcotest.(check int) "higher term adopted" 3 (Replica.epoch r);
  Alcotest.(check int) "current-term bytes applied" (Wal.durable_end wal)
    (Replica.applied_lsn r);
  (* note_epoch never regresses *)
  Replica.note_epoch r 2;
  Alcotest.(check int) "terms are monotone" 3 (Replica.epoch r)

(* Satellite: seeded property sweep — replica apply converges to the
   primary's state under arbitrary duplication, reordering, and lossy
   first deliveries followed by a post-heal in-order resend. *)
let test_replica_convergence_property () =
  let db, durable = primary_with_tail () in
  let wal = Durable.wal durable in
  let expected = view_rows (Strip_db.catalog db) in
  let probe = bootstrap_replica durable in
  let base = Replica.applied_lsn probe in
  let tail = Wal.durable_slice wal ~from_lsn:base in
  let starts = List.map fst (Wal.read_from wal ~lsn:base).Wal.records in
  let rec bounds = function
    | [ last ] -> [ (last, Wal.durable_end wal) ]
    | a :: (b :: _ as rest) -> (a, b) :: bounds rest
    | [] -> []
  in
  let chunks =
    List.map
      (fun (a, b) -> (a, String.sub tail (a - base) (b - a)))
      (bounds starts)
  in
  Alcotest.(check bool) "enough frames to permute" true
    (List.length chunks >= 2);
  for seed = 0 to 19 do
    let rng = Random.State.make [| seed; 0x5eed |] in
    let r = bootstrap_replica durable in
    let seq = ref 0 in
    let send (a, bytes) =
      deliver r ~seq:!seq
        ~sent_at:(1.0 +. (0.01 *. float_of_int !seq))
        (seg ~from_lsn:a bytes);
      incr seq
    in
    (* partition-flavored first pass: a shuffled subset, some duplicated *)
    let shuffled =
      List.map (fun c -> (Random.State.bits rng, c)) chunks
      |> List.sort compare |> List.map snd
    in
    List.iter
      (fun c ->
        if Random.State.float rng 1.0 < 0.7 then begin
          send c;
          if Random.State.bool rng then send c
        end)
      shuffled;
    (* heal: the shipper re-covers the whole tail in order *)
    List.iter send chunks;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: applied through the end" seed)
      (Wal.durable_end wal) (Replica.applied_lsn r);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: view converged to the primary" seed)
      true
      (view_rows (Replica.catalog r) = expected)
  done

(* ------------------------------------------------------------------ *)
(* Cluster: shipping convergence and deterministic promotion *)

let test_promotion_tie_break () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db = Test_recovery.setup_durable_db durable in
  Strip_db.checkpoint db;
  update_stock db ~at:0.0 "S1" 31.0;
  update_stock db ~at:0.3 "S2" 38.0;
  let cfg = { Cluster.default_config with n_replicas = 2 } in
  let c =
    Cluster.create cfg ~primary:db ~read_table:"comp_prices"
      ~read_key_col:"comp" ~read_keys:[| "C1"; "C2" |] ~read_until:0.0
  in
  Cluster.schedule_shipping c ~until:3.0;
  Strip_db.run db ~until:3.0;
  Strip_db.crash db;
  (* identical links, no drops: both replicas hold the same applied LSN,
     so the election must break the tie toward the lowest id *)
  Alcotest.(check int) "replicas tied"
    (Replica.applied_lsn (Cluster.replica c 0))
    (Replica.applied_lsn (Cluster.replica c 1));
  let ndb, _rs, p =
    Cluster.promote c ~now:3.0
      ~mk_db:(fun dur -> Strip_db.create ~now:3.0 ~durable:dur ())
      ~reinstall:(fun ndb -> Test_recovery.install_comp_rule ndb)
  in
  Alcotest.(check int) "lowest id wins the tie" 0 p.Cluster.promoted;
  Alcotest.(check int) "nothing durable was lost" 0 p.Cluster.lost_bytes;
  Alcotest.(check int) "one failover counted" 1 (Cluster.n_failovers c);
  Alcotest.(check bool) "cluster repointed" true (Cluster.primary c == ndb);
  Strip_db.run ndb;
  Alcotest.(check int) "promoted primary audits clean" 0
    (List.length (Auditor.audit ndb).Auditor.divergences);
  Alcotest.(check bool) "promoted view matches the old primary's" true
    (view_rows (Strip_db.catalog db) = view_rows (Strip_db.catalog ndb))

let test_promotion_opens_new_epoch () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db = Test_recovery.setup_durable_db durable in
  Strip_db.checkpoint db;
  update_stock db ~at:0.0 "S1" 31.0;
  let cfg = { Cluster.default_config with n_replicas = 2 } in
  let c =
    Cluster.create cfg ~primary:db ~read_table:"comp_prices"
      ~read_key_col:"comp" ~read_keys:[| "C1" |] ~read_until:0.0
  in
  Alcotest.(check int) "the founding primary opens term 1" 1
    (Cluster.epoch c);
  Alcotest.(check (list (pair int int))) "founding history"
    [ (1, -1) ]
    (Cluster.epoch_history c);
  Cluster.schedule_shipping c ~until:3.0;
  Strip_db.run db ~until:3.0;
  Strip_db.crash db;
  let _ndb, _rs, p =
    Cluster.promote c ~now:3.0
      ~mk_db:(fun dur -> Strip_db.create ~now:3.0 ~durable:dur ())
      ~reinstall:(fun ndb -> Test_recovery.install_comp_rule ndb)
  in
  Alcotest.(check int) "the election opened term 2" 2 p.Cluster.epoch;
  Alcotest.(check int) "cluster term advanced" 2 (Cluster.epoch c);
  Alcotest.(check (list (pair int int))) "history records the winner"
    [ (1, -1); (2, p.Cluster.promoted) ]
    (Cluster.epoch_history c);
  Alcotest.(check int) "replicas adopted the new term" 2
    (Replica.epoch (Cluster.replica c 0))

(* With no replica there is no one to elect: both promotions refuse, and
   a replica-less cluster restarts in place instead (covered by "a
   replica-less read pump follows a restart"). *)
let test_promotion_needs_a_replica () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db = Test_recovery.setup_durable_db durable in
  let cfg = { Cluster.default_config with n_replicas = 0 } in
  let c =
    Cluster.create cfg ~primary:db ~read_table:"comp_prices"
      ~read_key_col:"comp" ~read_keys:[| "C1" |] ~read_until:0.0
  in
  Strip_db.crash db;
  let refuses name promote =
    let raised =
      match
        promote c ~now:3.0
          ~mk_db:(fun dur -> Strip_db.create ~now:3.0 ~durable:dur ())
          ~reinstall:(fun ndb -> Test_recovery.install_comp_rule ndb)
      with
      | _ -> false
      | exception Invalid_argument _ -> true
    in
    Alcotest.(check bool) (name ^ " raises Invalid_argument") true raised
  in
  refuses "promote" Cluster.promote;
  refuses "promote_isolated" Cluster.promote_isolated;
  Alcotest.(check int) "no failover counted" 0 (Cluster.n_failovers c);
  Alcotest.(check (list (pair int int))) "no epoch opened"
    [ (1, -1) ]
    (Cluster.epoch_history c);
  Alcotest.(check bool) "cluster still points at the old primary" true
    (Cluster.primary c == db)

(* ------------------------------------------------------------------ *)
(* End-to-end: experiment failover loop, routing policies, determinism *)

let with_repl ?(policy = Cluster.Bounded_staleness 0.5) ?(rate = 25.0)
    (cfg : Experiment.config) : Experiment.config =
  {
    cfg with
    Experiment.repl =
      Some
        ({
           Experiment.default_repl with
           Experiment.replicas = 2;
           read_policy = policy;
           read_rate = rate;
         }
          : Experiment.repl_cfg);
  }

let test_experiment_failover () =
  Task.reset_ids ();
  let m = Experiment.run (with_repl (Test_recovery.crashy_cfg ())) in
  let r = Option.get m.Experiment.repl in
  let rc = Option.get m.Experiment.recovery in
  Alcotest.(check int) "the crash became a failover" 1 r.Experiment.n_failovers;
  Alcotest.(check int) "both replicas reported" 2
    (List.length r.Experiment.per_replica);
  Alcotest.(check bool) "reads were served" true (r.Experiment.n_reads > 0);
  Alcotest.(check bool) "replicas converged to the final primary" true
    (List.for_all
       (fun (pr : Experiment.replica_metrics) ->
         pr.Experiment.r_applied_lsn > 0)
       r.Experiment.per_replica);
  Alcotest.(check bool) "audit clean without repairs" true
    (rc.Experiment.audit_clean
    && Report.count m.Experiment.registry "recovery_repairs_total" = 0);
  Alcotest.(check (option bool)) "view verified against recomputation"
    (Some true) m.Experiment.verified

let test_experiment_failover_determinism () =
  Task.reset_ids ();
  let a = Experiment.run (with_repl (Test_recovery.crashy_cfg ())) in
  Task.reset_ids ();
  let b = Experiment.run (with_repl (Test_recovery.crashy_cfg ())) in
  Alcotest.(check string) "same seed, same failover, byte-identical metrics"
    (Strip_obs.Json.to_string (Report.metrics_json a))
    (Strip_obs.Json.to_string (Report.metrics_json b))

(* A replica-less read pump over a crash: the restart in place must
   repoint the cluster, so reads after it are served by (and counted in
   the registry of) the live incarnation, and reads arriving during the
   recovery downtime wait for it, as they do after a failover. *)
let test_reads_follow_restart_in_place () =
  Task.reset_ids ();
  let cfg = Test_recovery.crashy_cfg () in
  let cfg =
    {
      cfg with
      Experiment.repl =
        Some
          ({
             Experiment.default_repl with
             Experiment.replicas = 0;
             read_rate = 50.0;
           }
            : Experiment.repl_cfg);
    }
  in
  let m = Experiment.run cfg in
  let r = Option.get m.Experiment.repl in
  let rc = Option.get m.Experiment.recovery in
  Alcotest.(check int) "restarted in place" 0 r.Experiment.n_failovers;
  Alcotest.(check bool) "a crash was recovered" true
    (rc.Experiment.total_recovery_s > 0.0);
  Alcotest.(check bool) "audit clean" true rc.Experiment.audit_clean;
  let primary_reads =
    match
      Strip_obs.Metrics.find m.Experiment.registry "repl_reads_primary_total"
    with
    | Some (Strip_obs.Metrics.Int n) -> Some n
    | _ -> None
  in
  Alcotest.(check (option int)) "the live registry counts every read"
    (Some r.Experiment.n_reads) primary_reads;
  let lat = Option.get r.Experiment.read_latency in
  Alcotest.(check bool) "reads in the outage wait for the restart" true
    (lat.Strip_obs.Histogram.max >= rc.Experiment.total_recovery_s *. 0.5)

let quick_cfg () =
  Experiment.quick
    (Experiment.default_config
       (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0)
    0.02

let test_bounded_zero_always_primary () =
  Task.reset_ids ();
  let m =
    Experiment.run
      (with_repl ~policy:(Cluster.Bounded_staleness 0.0) (quick_cfg ()))
  in
  let r = Option.get m.Experiment.repl in
  Alcotest.(check bool) "reads ran" true (r.Experiment.n_reads > 0);
  Alcotest.(check int) "bounded:0 never elects a replica" 0
    r.Experiment.reads_replica;
  Alcotest.(check int) "every read fell through to the primary"
    r.Experiment.n_reads r.Experiment.reads_primary

let test_any_policy_spreads_reads () =
  Task.reset_ids ();
  let m = Experiment.run (with_repl ~policy:Cluster.Any (quick_cfg ())) in
  let r = Option.get m.Experiment.repl in
  Alcotest.(check bool) "replicas served reads" true
    (r.Experiment.reads_replica > 0);
  Alcotest.(check bool) "primary served its round-robin share" true
    (r.Experiment.reads_primary > 0)

let test_no_repl_surface_without_config () =
  Task.reset_ids ();
  let m = Experiment.run (quick_cfg ()) in
  Alcotest.(check bool) "no repl block without a repl config" true
    (m.Experiment.repl = None);
  let json = Strip_obs.Json.to_string (Report.metrics_json m) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    nn = 0 || at 0
  in
  Alcotest.(check bool) "JSON carries no replication member" false
    (contains json "\"replication\"");
  Task.reset_ids ();
  let mr = Experiment.run (with_repl (quick_cfg ())) in
  Alcotest.(check bool) "JSON carries the member when configured" true
    (contains
       (Strip_obs.Json.to_string (Report.metrics_json mr))
       "\"replication\"")

(* Acceptance: partition the primary mid-feed, elect over the cut, heal,
   fence the deposed primary's divergent tail, and end converged with no
   acked commit lost. *)
let split_brain_cfg () =
  {
    (with_repl (quick_cfg ())) with
    Experiment.verify = true;
    recovery = Some Experiment.default_recovery;
    chaos = [ Experiment.Partition_at { at = 9.0; heal_after_s = 1.5 } ];
  }

let test_split_brain_failover () =
  Task.reset_ids ();
  let m = Experiment.run (split_brain_cfg ()) in
  let r = Option.get m.Experiment.repl in
  let rc = Option.get m.Experiment.recovery in
  Alcotest.(check int) "one partition window" 1 r.Experiment.n_partitions;
  Alcotest.(check int) "the cut forced an election" 1 r.Experiment.n_failovers;
  Alcotest.(check int) "a new term opened" 2 r.Experiment.epoch;
  Alcotest.(check bool) "the deposed primary's tail was fenced" true
    (r.Experiment.fenced_bytes > 0);
  Alcotest.(check int) "fencing is not election data loss" 0
    r.Experiment.promotion_lost_bytes;
  Alcotest.(check bool) "replicas rejected stale-epoch traffic" true
    (Report.count m.Experiment.registry "repl_fenced_messages_total" > 0);
  (* no acked commit lost: every promotion's applied frontier is still
     inside the final log *)
  List.iter
    (fun (e, _, lsn) ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d acked frontier inside the final log" e)
        true
        (lsn <= r.Experiment.final_lsn))
    r.Experiment.promotions;
  (* exactly one primary per epoch: history (in opening order) strictly
     increases *)
  let rec strictly_increasing = function
    | (e1, _) :: ((e2, _) :: _ as rest) ->
      e1 < e2 && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "single primary per epoch" true
    (strictly_increasing r.Experiment.epochs);
  Alcotest.(check bool) "both replicas converged to the final primary" true
    (List.for_all
       (fun (pr : Experiment.replica_metrics) ->
         pr.Experiment.r_applied_lsn = r.Experiment.final_lsn)
       r.Experiment.per_replica);
  Alcotest.(check bool) "audit clean after heal" true rc.Experiment.audit_clean;
  Alcotest.(check (option bool)) "view verified against recomputation"
    (Some true) m.Experiment.verified

let test_split_brain_determinism () =
  let run () =
    Task.reset_ids ();
    Strip_obs.Json.to_string
      (Report.metrics_json (Experiment.run (split_brain_cfg ())))
  in
  Alcotest.(check string) "same partition schedule, byte-identical metrics"
    (run ()) (run ())

let suite =
  [
    ( "repl/wal",
      [
        Alcotest.test_case "read_from cursor" `Quick test_wal_read_from;
        Alcotest.test_case "slice/install round-trip" `Quick
          test_wal_slice_install_roundtrip;
      ] );
    ( "repl/link",
      [
        Alcotest.test_case "delivery order under serialization" `Quick
          test_link_delivery_order;
        Alcotest.test_case "drops are deterministic" `Quick
          test_link_drops_deterministic;
        Alcotest.test_case "partition windows cut sends while open" `Quick
          test_link_partition_window;
        Alcotest.test_case "window boundary half-open, RNG stream stable"
          `Quick test_link_window_boundary_and_rng;
        Alcotest.test_case "epoch-tagged windows fence one term" `Quick
          test_link_epoch_tagged_window;
        Alcotest.test_case "drop bursts raise loss inside the window" `Quick
          test_link_drop_burst;
        Alcotest.test_case "random windows are pure in the seed" `Quick
          test_link_random_windows;
      ] );
    ( "repl/replica",
      [
        Alcotest.test_case "joins mid-stream from a checkpoint" `Quick
          test_replica_joins_mid_stream;
        Alcotest.test_case "duplicate/reordered delivery is idempotent"
          `Quick test_replica_duplicate_and_reordered_apply;
        Alcotest.test_case "re-seeds after checkpoint truncation" `Quick
          test_replica_reseeds_after_truncation;
        Alcotest.test_case "heartbeats advance the staleness horizon" `Quick
          test_replica_heartbeat_staleness;
        Alcotest.test_case "stale epochs are fenced, higher adopted" `Quick
          test_replica_fencing;
        Alcotest.test_case "apply converges under seeded chaos delivery"
          `Quick test_replica_convergence_property;
      ] );
    ( "repl/cluster",
      [
        Alcotest.test_case "promotion breaks LSN ties by lowest id" `Quick
          test_promotion_tie_break;
        Alcotest.test_case "every election opens a new epoch" `Quick
          test_promotion_opens_new_epoch;
        Alcotest.test_case "promotion needs a replica" `Quick
          test_promotion_needs_a_replica;
      ] );
    ( "repl/experiment",
      [
        Alcotest.test_case "failover recovers and audits clean" `Slow
          test_experiment_failover;
        Alcotest.test_case "failover runs are deterministic" `Slow
          test_experiment_failover_determinism;
        Alcotest.test_case "bounded:0 always reads the primary" `Slow
          test_bounded_zero_always_primary;
        Alcotest.test_case "any policy spreads reads over all lanes" `Slow
          test_any_policy_spreads_reads;
        Alcotest.test_case "unreplicated runs expose no repl surface" `Slow
          test_no_repl_surface_without_config;
        Alcotest.test_case "a replica-less read pump follows a restart" `Slow
          test_reads_follow_restart_in_place;
        Alcotest.test_case "split-brain: partition, fence, heal, converge"
          `Slow test_split_brain_failover;
        Alcotest.test_case "split-brain runs are deterministic" `Slow
          test_split_brain_determinism;
      ] );
  ]
