(* The sharded write path: hash partitioner, partial-delta codec, the
   Shard_* WAL records, the distributed unique-transaction queue's
   idempotence and determinism, and end-to-end sharded runs (clean
   cross-shard audit, in-process re-run determinism, crash-during-ship
   exactly-once recovery). *)

open Strip_relational
open Strip_txn
open Strip_pta
module Partitioner = Strip_shard.Partitioner
module Partial = Strip_shard.Partial
module Dqueue = Strip_shard.Dqueue

(* ------------------------------------------------------------------ *)
(* Partitioner *)

let test_partitioner () =
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Partitioner.create: shards < 1") (fun () ->
      ignore (Partitioner.create ~shards:0));
  let p = Partitioner.create ~shards:4 in
  let syms = List.init 500 Strip_market.Taq.symbol in
  let hit = Array.make 4 false in
  List.iter
    (fun s ->
      let i = Partitioner.shard_of_symbol p s in
      Alcotest.(check bool) "in range" true (i >= 0 && i < 4);
      Alcotest.(check int) "deterministic" i (Partitioner.shard_of_symbol p s);
      (* symbol and composite keys route through the same hash *)
      Alcotest.(check int) "comp = symbol routing" i
        (Partitioner.shard_of_comp p s);
      hit.(i) <- true)
    syms;
  Alcotest.(check bool) "all shards populated" true
    (Array.for_all Fun.id hit);
  let one = Partitioner.create ~shards:1 in
  List.iter
    (fun s ->
      Alcotest.(check int) "single shard owns all" 0
        (Partitioner.shard_of_symbol one s))
    syms

(* ------------------------------------------------------------------ *)
(* Partial-delta codec *)

let roundtrip msg = Partial.decode (Partial.encode msg)

let test_partial_codec () =
  let p =
    {
      Partial.src = 2;
      seq = 41;
      dst = 0;
      key = [ Value.Str "C17" ];
      delta = -3.125;
      created_at = 12.5;
      ctx = Some (77, 13);
    }
  in
  (match roundtrip (Partial.Partial p) with
  | Partial.Partial q ->
    Alcotest.(check int) "src" p.Partial.src q.Partial.src;
    Alcotest.(check int) "seq" p.Partial.seq q.Partial.seq;
    Alcotest.(check int) "dst" p.Partial.dst q.Partial.dst;
    Alcotest.(check bool) "key" true (p.Partial.key = q.Partial.key);
    Alcotest.(check (float 0.0)) "delta" p.Partial.delta q.Partial.delta;
    Alcotest.(check (float 0.0)) "created_at" p.Partial.created_at
      q.Partial.created_at;
    Alcotest.(check bool) "ctx" true (q.Partial.ctx = Some (77, 13))
  | Partial.Ack _ -> Alcotest.fail "decoded as ack");
  (match roundtrip (Partial.Partial { p with Partial.ctx = None }) with
  | Partial.Partial q -> Alcotest.(check bool) "no ctx" true (q.Partial.ctx = None)
  | Partial.Ack _ -> Alcotest.fail "decoded as ack");
  (match roundtrip (Partial.Ack { src = 3; seq = 99 }) with
  | Partial.Ack { src; seq } ->
    Alcotest.(check int) "ack src" 3 src;
    Alcotest.(check int) "ack seq" 99 seq
  | Partial.Partial _ -> Alcotest.fail "decoded as partial");
  let garbage = "\xff" ^ String.make 8 '\x00' in
  Alcotest.(check bool) "unknown tag raises" true
    (match Partial.decode garbage with
    | exception Strip_txn.Codec.Decode_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Shard_* WAL records *)

let test_wal_shard_records () =
  let recs =
    [
      Wal.Shard_out
        {
          seq = 5;
          dst = 1;
          key = [ Value.Str "C3" ];
          delta = 0.625;
          created_at = 1.5;
        };
      Wal.Shard_in
        {
          src = 3;
          seq = 12;
          key = [ Value.Str "C3"; Value.Int 7 ];
          delta = -1.25;
          created_at = 2.0;
        };
      Wal.Shard_release { key = [ Value.Str "C3" ] };
      Wal.Shard_state
        {
          next_seq = 6;
          seen = [ (0, 1); (2, 4) ];
          pending = [ ([ Value.Str "C9" ], 2.5, 1.0) ];
          unacked = [ (5, 1, [ Value.Str "C3" ], 0.625, 1.5) ];
        };
    ]
  in
  let w = Wal.create () in
  ignore (Wal.append_batch w recs);
  Wal.fsync w;
  let got = List.map snd (Wal.read w).Wal.records in
  Alcotest.(check int) "all read back" (List.length recs) (List.length got);
  List.iter2
    (fun a b -> Alcotest.(check bool) "record round-trips" true (a = b))
    recs got

(* ------------------------------------------------------------------ *)
(* Distributed unique-transaction queue *)

let k c = [ Value.Str c ]

let test_dqueue_idempotence () =
  let q = Dqueue.create () in
  let offer ?(src = 0) ?(seq = 0) ?(key = "C1") ?(delta = 1.0) ?(at = 1.0) () =
    Dqueue.offer q ~src ~seq ~key:(k key) ~delta ~created_at:at
  in
  Alcotest.(check bool) "first is fresh" true (offer () = Dqueue.Fresh);
  Alcotest.(check bool) "resend is duplicate" true
    (offer ~delta:99.0 () = Dqueue.Duplicate);
  Alcotest.(check bool) "same key, new identity merges" true
    (offer ~src:1 ~seq:0 ~delta:0.5 ~at:2.0 () = Dqueue.Merged);
  (match Dqueue.peek q ~key:(k "C1") with
  | Some (d, at) ->
    Alcotest.(check (float 1e-12)) "merged total" 1.5 d;
    Alcotest.(check (float 0.0)) "keeps first arrival time" 1.0 at
  | None -> Alcotest.fail "pending entry missing");
  (* duplicate of the merged identity still changes nothing *)
  Alcotest.(check bool) "merged identity deduped" true
    (offer ~src:1 ~seq:0 ~delta:7.0 () = Dqueue.Duplicate);
  Alcotest.(check int) "counters: offered" 4 (Dqueue.n_offered q);
  Alcotest.(check int) "counters: duplicates" 2 (Dqueue.n_duplicates q);
  Alcotest.(check int) "counters: merged" 1 (Dqueue.n_merged q);
  Alcotest.(check int) "counters: fresh" 1 (Dqueue.n_fresh q);
  Dqueue.remove q ~key:(k "C1");
  Alcotest.(check int) "applied" 1 (Dqueue.n_applied q);
  Alcotest.(check bool) "removed" true (Dqueue.peek q ~key:(k "C1") = None);
  (* removing an absent key is a no-op, not a second apply *)
  Dqueue.remove q ~key:(k "C1");
  Alcotest.(check int) "no-op remove not counted" 1 (Dqueue.n_applied q)

(* Any arrival order of the same identity set yields the same merged
   totals and the same first-arrival bookkeeping: merge is commutative
   addition and dedup is order-independent. *)
let test_dqueue_order_independence () =
  let deliveries =
    [
      (0, 0, "C1", 1.0, 1.0);
      (1, 0, "C1", 2.0, 1.5);
      (0, 1, "C2", -0.5, 2.0);
      (2, 3, "C1", 0.25, 2.5);
      (1, 1, "C2", 4.0, 3.0);
      (0, 0, "C1", 1.0, 3.5) (* resend of the first *);
    ]
  in
  let feed order =
    let q = Dqueue.create () in
    List.iter
      (fun (src, seq, key, delta, at) ->
        ignore (Dqueue.offer q ~src ~seq ~key:(k key) ~delta ~created_at:at))
      order;
    List.map
      (fun key ->
        match Dqueue.peek q ~key:(k key) with
        | Some (d, _) -> (key, d)
        | None -> (key, nan))
      [ "C1"; "C2" ]
  in
  let base = feed deliveries in
  Alcotest.(check (float 1e-12)) "C1 total" 3.25 (List.assoc "C1" base);
  Alcotest.(check (float 1e-12)) "C2 total" 3.5 (List.assoc "C2" base);
  let rev = feed (List.rev deliveries) in
  List.iter2
    (fun (ka, va) (kb, vb) ->
      Alcotest.(check string) "same key" ka kb;
      Alcotest.(check (float 1e-12)) "same total under reorder" va vb)
    base rev

let test_dqueue_restore () =
  let q = Dqueue.create () in
  ignore (Dqueue.offer q ~src:0 ~seq:0 ~key:(k "C1") ~delta:1.0 ~created_at:1.0);
  ignore (Dqueue.offer q ~src:1 ~seq:2 ~key:(k "C2") ~delta:2.0 ~created_at:2.0);
  ignore (Dqueue.offer q ~src:0 ~seq:1 ~key:(k "C1") ~delta:0.5 ~created_at:3.0);
  let seen = Dqueue.seen_list q and pending = Dqueue.pending_list q in
  Alcotest.(check int) "seen size" 3 (List.length seen);
  Alcotest.(check int) "pending size" 2 (List.length pending);
  let q2 = Dqueue.create () in
  Dqueue.restore q2 ~seen ~pending;
  Alcotest.(check bool) "seen restored" true (Dqueue.seen_list q2 = seen);
  Alcotest.(check bool) "pending restored" true
    (Dqueue.pending_list q2 = pending);
  Alcotest.(check bool) "first-arrival order kept" true
    (Dqueue.pending_keys q2 = Dqueue.pending_keys q);
  (* restored dedup set still rejects the old identities *)
  Alcotest.(check bool) "restored dedup" true
    (Dqueue.offer q2 ~src:0 ~seq:0 ~key:(k "C1") ~delta:9.0 ~created_at:9.0
    = Dqueue.Duplicate)

(* ------------------------------------------------------------------ *)
(* End-to-end sharded runs *)

let scale = 0.05

let sharded_cfg ?crash ~shards rule ~delay =
  let cfg = Experiment.quick (Experiment.default_config rule ~delay) scale in
  {
    cfg with
    Experiment.shard =
      Some
        {
          (Experiment.default_shard ~shards) with
          Experiment.shard_crash_at = crash;
        };
  }

let fingerprint (m : Experiment.metrics) =
  ( ( m.Experiment.n_updates,
      m.Experiment.n_recompute,
      m.Experiment.n_firings,
      m.Experiment.makespan_s ),
    (m.Experiment.verified, m.Experiment.max_abs_error),
    m.Experiment.shard )

let test_sharded_run_verified () =
  let cfg =
    sharded_cfg ~shards:3
      (Experiment.Comp_view Comp_rules.Unique_on_comp)
      ~delay:1.0
  in
  let m = Experiment.run cfg in
  Alcotest.(check bool) "cross-shard audit verified" true
    (m.Experiment.verified = Some true);
  match m.Experiment.shard with
  | None -> Alcotest.fail "shard metrics missing"
  | Some s ->
    Alcotest.(check int) "three shards" 3 s.Experiment.n_shards;
    Alcotest.(check bool) "partials shipped cross-shard" true
      (s.Experiment.sh_partials > 0);
    Alcotest.(check bool) "acks flowed back" true (s.Experiment.sh_acks > 0);
    Alcotest.(check int) "no divergences" 0 s.Experiment.cross_divergences;
    Alcotest.(check bool) "every shard saw updates" true
      (List.for_all
         (fun r -> r.Experiment.sh_updates > 0)
         s.Experiment.sh_rows);
    let applied =
      List.fold_left
        (fun t r -> t + r.Experiment.sh_applied)
        0 s.Experiment.sh_rows
    in
    Alcotest.(check bool) "merged deltas were applied" true (applied > 0);
    (match m.Experiment.recovery with
    | Some r -> Alcotest.(check bool) "audit clean" true r.Experiment.audit_clean
    | None -> Alcotest.fail "sharded runs are always durable")

(* Same dataset for any shard count: the union of the shards' partitions
   must equal the unsharded population, table by table. *)
let test_partition_union () =
  let feed = Strip_market.Feed.scaled Strip_market.Feed.default_config scale in
  let sizes = Pta_tables.scaled_sizes Pta_tables.default_sizes scale in
  let db1 = Strip_core.Strip_db.create () in
  let h1 = Pta_tables.populate db1 ~feed sizes in
  let p = Partitioner.create ~shards:3 in
  let dbs = Array.init 3 (fun _ -> Strip_core.Strip_db.create ()) in
  let hs =
    Pta_tables.populate_sharded dbs
      ~owner_sym:(Partitioner.shard_of_symbol p)
      ~owner_comp:(Partitioner.shard_of_comp p)
      ~feed sizes
  in
  let rows table_of h =
    let t = table_of h in
    let arity = Schema.arity (Table.schema t) in
    let acc = ref [] in
    Table.iter t (fun r ->
        acc := List.init arity (fun i -> Record.value r i) :: !acc);
    !acc
  in
  let union table_of =
    Array.to_list hs |> List.concat_map (rows table_of) |> List.sort compare
  in
  let whole table_of = List.sort compare (rows table_of h1) in
  List.iter
    (fun (name, table_of) ->
      Alcotest.(check bool)
        (name ^ " union equals unsharded")
        true
        (union table_of = whole table_of))
    [
      ("stocks", fun (h : Pta_tables.handles) -> h.Pta_tables.stocks);
      ("stock_stdev", fun h -> h.Pta_tables.stock_stdev);
      ("comps_list", fun h -> h.Pta_tables.comps_list);
      ("options_list", fun h -> h.Pta_tables.options_list);
    ];
  (* seeded composite partitions agree with the unsharded view *)
  let worst =
    Experiment.max_error
      (Comp_rules.maintained h1)
      (Comp_rules.maintained_sharded hs)
  in
  Alcotest.(check bool) "comp seeds agree" true (worst < 1e-9)

let test_sharded_determinism () =
  let mk () =
    Experiment.run
      (sharded_cfg ~shards:2
         (Experiment.Comp_view Comp_rules.Unique_coarse)
         ~delay:2.0)
  in
  let a = fingerprint (mk ()) and b = fingerprint (mk ()) in
  Alcotest.(check bool) "re-run is identical in-process" true (a = b)

let test_shard_crash_recovery () =
  let cfg =
    sharded_cfg ~shards:3
      ~crash:(1, Strip_market.Feed.(scaled default_config scale).duration /. 2.0)
      (Experiment.Comp_view Comp_rules.Unique_on_comp)
      ~delay:1.0
  in
  let m = Experiment.run cfg in
  (match m.Experiment.shard with
  | None -> Alcotest.fail "shard metrics missing"
  | Some s ->
    let crashed = List.nth s.Experiment.sh_rows 1 in
    Alcotest.(check bool) "shard 1 crashed" true
      (crashed.Experiment.sh_crashes >= 1);
    Alcotest.(check int) "cross-shard audit clean after recovery" 0
      s.Experiment.cross_divergences);
  Alcotest.(check bool) "exactly-once composite effect" true
    (m.Experiment.verified = Some true);
  match m.Experiment.recovery with
  | Some r ->
    Alcotest.(check bool) "crash counted" true (r.Experiment.n_crashes >= 1);
    Alcotest.(check bool) "audit clean" true r.Experiment.audit_clean
  | None -> Alcotest.fail "recovery metrics missing"

(* The topology rule: any shard config, a single shard included, runs
   through the coordinator; no shard config runs one primary. *)
let test_topology_rule () =
  let rule = Experiment.Comp_view Comp_rules.Unique_on_comp in
  let one = Experiment.run (sharded_cfg ~shards:1 rule ~delay:1.0) in
  (match one.Experiment.shard with
  | None -> Alcotest.fail "shards = 1 did not run through the coordinator"
  | Some s ->
    Alcotest.(check int) "one shard" 1 s.Experiment.n_shards;
    Alcotest.(check int) "no partials shipped" 0 s.Experiment.sh_partials);
  Alcotest.(check (option bool)) "single shard verified" (Some true)
    one.Experiment.verified;
  let none =
    Experiment.run
      (Experiment.quick (Experiment.default_config rule ~delay:1.0) scale)
  in
  Alcotest.(check bool) "no shard config, no coordinator" true
    (none.Experiment.shard = None)

(* One fold over the shards and their dead incarnations: the global
   counters are the per-shard sums, and mean_recovery_s is task retry
   latency (none here), not the shard's crash downtime. *)
let test_shard_crash_fold () =
  let m =
    Experiment.run
      (sharded_cfg ~shards:3 ~crash:(1, 45.0)
         (Experiment.Comp_view Comp_rules.Non_unique)
         ~delay:1.0)
  in
  let s =
    match m.Experiment.shard with
    | Some s -> s
    | None -> Alcotest.fail "shard metrics missing"
  in
  let total f = List.fold_left (fun t r -> t + f r) 0 s.Experiment.sh_rows in
  Alcotest.(check int) "shard 1 crashed once" 1
    (total (fun r -> r.Experiment.sh_crashes));
  Alcotest.(check int) "n_updates sums the shards"
    (total (fun r -> r.Experiment.sh_updates))
    m.Experiment.n_updates;
  Alcotest.(check int) "n_recompute sums the shards"
    (total (fun r -> r.Experiment.sh_recomputes))
    m.Experiment.n_recompute;
  Alcotest.(check int) "n_firings sums the shards"
    (total (fun r -> r.Experiment.sh_firings))
    m.Experiment.n_firings;
  Alcotest.(check int) "no task retries" 0 m.Experiment.n_retries;
  Alcotest.(check (float 0.0)) "mean_recovery_s is retry latency" 0.0
    m.Experiment.mean_recovery_s;
  match m.Experiment.recovery with
  | Some r ->
    Alcotest.(check bool) "crash downtime is total_recovery_s" true
      (r.Experiment.total_recovery_s > 0.0)
  | None -> Alcotest.fail "recovery metrics missing"

let suite =
  [
    ( "shard",
      [
        Alcotest.test_case "partitioner: stable, total, in range" `Quick
          test_partitioner;
        Alcotest.test_case "partial-delta codec round-trips" `Quick
          test_partial_codec;
        Alcotest.test_case "Shard_* WAL records round-trip" `Quick
          test_wal_shard_records;
        Alcotest.test_case "dqueue: duplicate + merge idempotence" `Quick
          test_dqueue_idempotence;
        Alcotest.test_case "dqueue: reorder-independent totals" `Quick
          test_dqueue_order_independence;
        Alcotest.test_case "dqueue: state snapshot restore" `Quick
          test_dqueue_restore;
        Alcotest.test_case "partitioned population unions to the whole" `Slow
          test_partition_union;
        Alcotest.test_case "sharded run: clean cross-shard audit" `Slow
          test_sharded_run_verified;
        Alcotest.test_case "sharded run: in-process determinism" `Slow
          test_sharded_determinism;
        Alcotest.test_case "crash during ship: exactly-once recovery" `Slow
          test_shard_crash_recovery;
        Alcotest.test_case "topology: any shard config runs the coordinator"
          `Slow test_topology_rule;
        Alcotest.test_case "shard crash: counters fold over shards" `Slow
          test_shard_crash_fold;
      ] );
  ]
