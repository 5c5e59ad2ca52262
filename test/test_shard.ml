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
  | _ -> Alcotest.fail "partial decoded as another kind");
  (match roundtrip (Partial.Partial { p with Partial.ctx = None }) with
  | Partial.Partial q -> Alcotest.(check bool) "no ctx" true (q.Partial.ctx = None)
  | _ -> Alcotest.fail "partial decoded as another kind");
  (match roundtrip (Partial.Ack { src = 3; floor = 99 }) with
  | Partial.Ack { src; floor } ->
    Alcotest.(check int) "ack src" 3 src;
    Alcotest.(check int) "ack floor" 99 floor
  | _ -> Alcotest.fail "ack decoded as another kind");
  (match roundtrip (Partial.Floor_request { src = 5 }) with
  | Partial.Floor_request { src } -> Alcotest.(check int) "request src" 5 src
  | _ -> Alcotest.fail "floor request decoded as another kind");
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
          out_seqs = [ (1, 5); (2, 3) ];
          watermarks = [ (0, 1, []); (2, 4, [ 6; 9 ]) ];
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
  let offer ?(src = 0) ?(seq = 1) ?(key = "C1") ?(delta = 1.0) ?(at = 1.0) () =
    Dqueue.offer q ~src ~seq ~key:(k key) ~delta ~created_at:at
  in
  Alcotest.(check bool) "first is fresh" true (offer () = Dqueue.Fresh);
  Alcotest.(check bool) "resend is duplicate" true
    (offer ~delta:99.0 () = Dqueue.Duplicate);
  Alcotest.(check bool) "same key, new identity merges" true
    (offer ~src:1 ~seq:1 ~delta:0.5 ~at:2.0 () = Dqueue.Merged);
  (match Dqueue.peek q ~key:(k "C1") with
  | Some (d, at) ->
    Alcotest.(check (float 1e-12)) "merged total" 1.5 d;
    Alcotest.(check (float 0.0)) "keeps first arrival time" 1.0 at
  | None -> Alcotest.fail "pending entry missing");
  (* duplicate of the merged identity still changes nothing *)
  Alcotest.(check bool) "merged identity deduped" true
    (offer ~src:1 ~seq:1 ~delta:7.0 () = Dqueue.Duplicate);
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
      (0, 1, "C1", 1.0, 1.0);
      (1, 1, "C1", 2.0, 1.5);
      (0, 2, "C2", -0.5, 2.0);
      (2, 4, "C1", 0.25, 2.5);
      (1, 2, "C2", 4.0, 3.0);
      (0, 1, "C1", 1.0, 3.5) (* resend of the first *);
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

let marks = Alcotest.(list (triple int int (list int)))

let test_dqueue_restore () =
  let q = Dqueue.create () in
  ignore (Dqueue.offer q ~src:0 ~seq:1 ~key:(k "C1") ~delta:1.0 ~created_at:1.0);
  ignore (Dqueue.offer q ~src:1 ~seq:3 ~key:(k "C2") ~delta:2.0 ~created_at:2.0);
  ignore (Dqueue.offer q ~src:0 ~seq:2 ~key:(k "C1") ~delta:0.5 ~created_at:3.0);
  let watermarks = Dqueue.watermarks q and pending = Dqueue.pending_list q in
  Alcotest.check marks "one watermark per source"
    [ (0, 2, []); (1, 0, [ 3 ]) ]
    watermarks;
  Alcotest.(check int) "pending size" 2 (List.length pending);
  let q2 = Dqueue.create () in
  Dqueue.restore q2 ~watermarks ~pending;
  Alcotest.check marks "watermarks restored" watermarks (Dqueue.watermarks q2);
  Alcotest.(check bool) "pending restored" true
    (Dqueue.pending_list q2 = pending);
  Alcotest.(check bool) "first-arrival order kept" true
    (Dqueue.pending_keys q2 = Dqueue.pending_keys q);
  (* restored watermarks still reject the old identities *)
  List.iter
    (fun (src, seq) ->
      Alcotest.(check bool)
        (Printf.sprintf "restored dedup (%d, %d)" src seq)
        true
        (Dqueue.offer q2 ~src ~seq ~key:(k "C1") ~delta:9.0 ~created_at:9.0
        = Dqueue.Duplicate))
    [ (0, 1); (0, 2); (1, 3) ];
  (* filling source 1's gap carries its floor past the seq above it *)
  ignore (Dqueue.offer q2 ~src:1 ~seq:2 ~key:(k "C2") ~delta:1.0 ~created_at:9.0);
  Alcotest.check marks "gap still open" [ (0, 2, []); (1, 0, [ 2; 3 ]) ]
    (Dqueue.watermarks q2);
  ignore (Dqueue.offer q2 ~src:1 ~seq:1 ~key:(k "C2") ~delta:1.0 ~created_at:9.0);
  Alcotest.check marks "gap filled" [ (0, 2, []); (1, 3, []) ]
    (Dqueue.watermarks q2)

(* Every (src, seq) the watermarks say is merged, ascending, after
   checking their shape: one entry per source, ascending, and each seq
   above a floor past its successor, ascending. *)
let merged_set step watermarks =
  let srcs = List.map (fun (src, _, _) -> src) watermarks in
  Alcotest.(check (list int))
    (step ^ ": one watermark per source")
    (List.sort_uniq compare srcs) srcs;
  List.concat_map
    (fun (src, floor, above) ->
      Alcotest.(check bool)
        (step ^ ": seqs above the floor's successor, ascending")
        true
        (List.sort_uniq compare above = above
        && List.for_all (fun s -> s > floor + 1) above);
      List.init floor (fun i -> (src, i + 1))
      @ List.map (fun seq -> (src, seq)) above)
    watermarks

(* The watermarks of a merged set of seqs >= 1, built the slow way. *)
let watermarks_of seen =
  List.sort_uniq compare (List.map fst seen)
  |> List.map (fun src ->
         let seqs =
           List.sort_uniq compare
             (List.filter_map
                (fun (s, seq) -> if s = src then Some seq else None)
                seen)
         in
         let rec floor f = if List.mem (f + 1) seqs then floor (f + 1) else f in
         let f = floor 0 in
         (src, f, List.filter (fun seq -> seq > f) seqs))

(* The dedup set as it was stored before the watermarks: a hashtable of
   (src, seq) pairs, exported through a polymorphic sort.  It is the
   reference the watermarks must agree with, verdict for verdict and
   merged set for merged set. *)
module Ref_dqueue = struct
  type t = {
    seen : (int * int, unit) Hashtbl.t;
    pending : (Value.t list, float * float) Hashtbl.t;
    mutable order : Value.t list list;  (* first-arrival order, reversed *)
  }

  let create () =
    { seen = Hashtbl.create 64; pending = Hashtbl.create 16; order = [] }

  let offer t ~src ~seq ~key ~delta ~created_at =
    if Hashtbl.mem t.seen (src, seq) then Dqueue.Duplicate
    else begin
      Hashtbl.replace t.seen (src, seq) ();
      match Hashtbl.find_opt t.pending key with
      | Some (d, c) ->
        Hashtbl.replace t.pending key (d +. delta, c);
        Dqueue.Merged
      | None ->
        Hashtbl.replace t.pending key (delta, created_at);
        t.order <- key :: t.order;
        Dqueue.Fresh
    end

  let remove t ~key =
    if Hashtbl.mem t.pending key then begin
      Hashtbl.remove t.pending key;
      t.order <- List.filter (fun k -> k <> key) t.order
    end

  let seen_list t =
    Hashtbl.fold (fun id () acc -> id :: acc) t.seen [] |> List.sort compare

  let pending_list t =
    List.rev_map
      (fun key ->
        let d, c = Hashtbl.find t.pending key in
        (key, d, c))
      t.order

  let restore t ~seen ~pending =
    Hashtbl.reset t.seen;
    Hashtbl.reset t.pending;
    t.order <- [];
    List.iter (fun id -> Hashtbl.replace t.seen id ()) seen;
    List.iter
      (fun (key, d, c) ->
        Hashtbl.replace t.pending key (d, c);
        t.order <- key :: t.order)
      pending
end

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort compare |> List.map snd

(* Random streams over 1-8 sources mixing in-order, out-of-order and
   duplicate offers with removes and a restore mid-stream: the
   watermarks give the reference's verdicts, merged set and pending
   list after every step. *)
let test_dqueue_differential () =
  let check_same step q r =
    Alcotest.(check (list (pair int int)))
      (step ^ ": merged set") (Ref_dqueue.seen_list r)
      (merged_set step (Dqueue.watermarks q));
    Alcotest.(check bool)
      (step ^ ": pending_list") true
      (Ref_dqueue.pending_list r = Dqueue.pending_list q)
  in
  for stream = 0 to 199 do
    let rng = Random.State.make [| 1997; stream |] in
    let nsrc = 1 + Random.State.int rng 8 in
    let next = Array.make nsrc 1 in
    let offered = ref [] in
    let q = Dqueue.create () and r = Ref_dqueue.create () in
    let n_ops = 50 + Random.State.int rng 250 in
    let restore_at = Random.State.int rng n_ops in
    for op = 0 to n_ops - 1 do
      let step = Printf.sprintf "stream %d op %d" stream op in
      let key = k (Printf.sprintf "K%d" (Random.State.int rng 6)) in
      let offer src seq =
        let delta = float_of_int (Random.State.int rng 1000) /. 8.0 in
        let created_at = float_of_int op in
        offered := (src, seq) :: !offered;
        let want = Ref_dqueue.offer r ~src ~seq ~key ~delta ~created_at in
        let got = Dqueue.offer q ~src ~seq ~key ~delta ~created_at in
        Alcotest.(check bool) (step ^ ": verdict") true (want = got)
      in
      (match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 ->
        (* in order, sometimes leaving a gap a later arrival fills *)
        let src = Random.State.int rng nsrc in
        let seq = next.(src) + Random.State.int rng 3 in
        next.(src) <- seq + 1;
        offer src seq
      | 4 | 5 ->
        let src = Random.State.int rng nsrc in
        offer src (1 + Random.State.int rng (next.(src) + 3))
      | 6 | 7 -> (
        match !offered with
        | [] -> ()
        | l ->
          let src, seq = List.nth l (Random.State.int rng (List.length l)) in
          offer src seq)
      | _ ->
        Ref_dqueue.remove r ~key;
        Dqueue.remove q ~key);
      if op = restore_at then begin
        let seen = Ref_dqueue.seen_list r
        and pending = Ref_dqueue.pending_list r in
        Ref_dqueue.restore r ~seen ~pending;
        Dqueue.restore q ~watermarks:(watermarks_of seen) ~pending
      end;
      check_same step q r
    done
  done

let test_dqueue_contract () =
  let q = Dqueue.create () in
  Alcotest.check_raises "offer rejects a negative source"
    (Invalid_argument "Dqueue: negative source shard id") (fun () ->
      ignore (Dqueue.offer q ~src:(-1) ~seq:1 ~key:(k "C1") ~delta:1.0
                ~created_at:0.0));
  Alcotest.check_raises "offer rejects a seq below 1"
    (Invalid_argument "Dqueue: seq below 1") (fun () ->
      ignore (Dqueue.offer q ~src:0 ~seq:0 ~key:(k "C1") ~delta:1.0
                ~created_at:0.0));
  Alcotest.(check int) "rejected offers not counted" 0 (Dqueue.n_offered q);
  ignore (Dqueue.offer q ~src:0 ~seq:5 ~key:(k "C1") ~delta:1.0 ~created_at:0.0);
  Alcotest.check_raises "restore rejects a negative source"
    (Invalid_argument "Dqueue: negative source shard id") (fun () ->
      Dqueue.restore q ~watermarks:[ (1, 0, []); (-2, 3, []) ] ~pending:[]);
  Alcotest.check marks "failed restore changes nothing" [ (0, 0, [ 5 ]) ]
    (Dqueue.watermarks q)

(* Crash recovery's log scan as it was before it replayed through a
   Dqueue: a hand-written fold over lists, the merged receipts kept as
   (src, seq) pairs.  The reference for Coordinator.scan_log. *)
let ref_scan_log records =
  let out_seqs = ref [] and seen = ref [] and pending = ref []
  and unacked = ref [] in
  let note (dst, seq) =
    let prev = try List.assoc dst !out_seqs with Not_found -> 0 in
    out_seqs := (dst, max prev seq) :: List.remove_assoc dst !out_seqs
  in
  List.iter
    (fun (_lsn, r) ->
      match r with
      | Wal.Shard_state s ->
        List.iter note s.out_seqs;
        seen := merged_set "snapshot" s.watermarks;
        pending := s.pending;
        unacked := s.unacked
      | Wal.Shard_out { seq; dst; key; delta; created_at } ->
        note (dst, seq);
        unacked := !unacked @ [ (seq, dst, key, delta, created_at) ]
      | Wal.Shard_in { src; seq; key; delta; created_at } ->
        if not (List.mem (src, seq) !seen) then begin
          seen := !seen @ [ (src, seq) ];
          let rec merge = function
            | [] -> [ (key, delta, created_at) ]
            | (k, d, c) :: tl when k = key -> (k, d +. delta, c) :: tl
            | hd :: tl -> hd :: merge tl
          in
          pending := merge !pending
        end
      | Wal.Shard_release { key } ->
        pending := List.filter (fun (k, _, _) -> k <> key) !pending
      | _ -> ())
    records;
  (List.sort compare !out_seqs, !seen, !pending, !unacked)

(* Random Shard_state / Shard_in / Shard_release / Shard_out logs: the
   live queue recovery restores from the replay equals the one it
   restored from the old fold. *)
let test_scan_log_differential () =
  for case = 0 to 199 do
    let rng = Random.State.make [| 1994; case |] in
    let nsrc = 1 + Random.State.int rng 8 in
    let key () = k (Printf.sprintf "K%d" (Random.State.int rng 6)) in
    let delta () = float_of_int (Random.State.int rng 1000) /. 8.0 in
    let state () =
      let seen =
        List.init (Random.State.int rng 30) (fun _ ->
            (Random.State.int rng nsrc, 1 + Random.State.int rng 40))
      in
      let pending =
        List.init 6 (fun i -> (k (Printf.sprintf "K%d" i), delta (), 0.5))
        |> List.filter (fun _ -> Random.State.bool rng)
        |> shuffle rng
      in
      let unacked =
        List.init (Random.State.int rng 4) (fun i ->
            (i, Random.State.int rng nsrc, key (), delta (), 0.25))
      in
      let out_seqs =
        List.init nsrc (fun dst -> (dst, Random.State.int rng 50))
        |> List.filter (fun _ -> Random.State.bool rng)
      in
      Wal.Shard_state
        { out_seqs; watermarks = watermarks_of seen; pending; unacked }
    in
    let record i =
      match Random.State.int rng 12 with
      | 0 -> state ()
      | 1 | 2 -> Wal.Shard_release { key = key () }
      | 3 ->
        Wal.Shard_out
          {
            seq = 1 + Random.State.int rng 60;
            dst = Random.State.int rng nsrc;
            key = key ();
            delta = delta ();
            created_at = float_of_int i;
          }
      | 4 -> Wal.Checkpoint_mark { time = float_of_int i; lsn = i }
      | _ ->
        Wal.Shard_in
          {
            src = Random.State.int rng nsrc;
            seq = 1 + Random.State.int rng 40;
            key = key ();
            delta = delta ();
            created_at = float_of_int i;
          }
    in
    let records = List.init (Random.State.int rng 120) (fun i -> (i, record i)) in
    let out_seqs, seen, pending, unacked = ref_scan_log records in
    let st = Strip_shard.Coordinator.scan_log records in
    let name = Printf.sprintf "case %d" case in
    Alcotest.(check (list (pair int int)))
      (name ^ ": out_seqs") out_seqs st.Strip_shard.Coordinator.out_seqs;
    Alcotest.(check bool) (name ^ ": unacked") true
      (unacked = st.Strip_shard.Coordinator.outstanding);
    (* what handle_crash does with the replay *)
    let q = st.Strip_shard.Coordinator.queue and live = Dqueue.create () in
    Dqueue.restore live ~watermarks:(Dqueue.watermarks q)
      ~pending:(Dqueue.pending_list q);
    Alcotest.(check (list (pair int int)))
      (name ^ ": restored merged set")
      (List.sort_uniq compare seen)
      (merged_set name (Dqueue.watermarks live));
    Alcotest.(check bool) (name ^ ": restored pending") true
      (pending = Dqueue.pending_list live)
  done

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
    m.Experiment.shard,
    m.Experiment.registry )

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
    let on i ?(labels = []) name =
      Report.count m.Experiment.registry
        ~labels:(("shard", string_of_int i) :: labels)
        name
    in
    Alcotest.(check bool) "every shard saw updates" true
      (List.for_all
         (fun i -> on i ~labels:[ ("class", "update") ] "tasks_total" > 0)
         [ 0; 1; 2 ]);
    let applied = Report.count m.Experiment.registry "dqueue_applied_total" in
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
    Alcotest.(check bool) "shard 1 crashed" true
      (Report.count m.Experiment.registry
         ~labels:[ ("shard", "1") ]
         "shard_crashes_total"
      >= 1);
    Alcotest.(check int) "cross-shard audit clean after recovery" 0
      s.Experiment.cross_divergences);
  Alcotest.(check bool) "exactly-once composite effect" true
    (m.Experiment.verified = Some true);
  match m.Experiment.recovery with
  | Some r ->
    Alcotest.(check bool) "crash counted" true (r.Experiment.n_crashes >= 1);
    Alcotest.(check bool) "audit clean" true r.Experiment.audit_clean
  | None -> Alcotest.fail "recovery metrics missing"

(* The same crash over links that drop nothing: whatever the crashed
   shard logged and its owners already merged, their floors cover, so the
   restarted shard re-ships none of it and no owner sees a duplicate.
   Acks are cumulative: at most one per owner, source and tick. *)
let test_shard_crash_reships_nothing () =
  let m =
    Experiment.run
      (sharded_cfg ~shards:3 ~crash:(1, 45.0)
         (Experiment.Comp_view Comp_rules.Unique_on_comp)
         ~delay:1.0)
  in
  Alcotest.(check (option bool)) "views verified" (Some true)
    m.Experiment.verified;
  Alcotest.(check int) "shard 1 crashed once" 1
    (Report.count m.Experiment.registry
       ~labels:[ ("shard", "1") ]
       "shard_crashes_total");
  let s = Option.get m.Experiment.shard in
  Alcotest.(check int) "cross-shard audit clean" 0 s.Experiment.cross_divergences;
  Alcotest.(check int) "no reships" 0 s.Experiment.sh_reships;
  List.iteri
    (fun i r ->
      Alcotest.(check int)
        (Printf.sprintf "no duplicate on shard %d" i)
        0 r.Experiment.sh_duplicates)
    s.Experiment.sh_rows;
  Alcotest.(check bool) "no more acks than partials" true
    (s.Experiment.sh_acks <= s.Experiment.sh_partials)

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
  let n = Option.get m.Experiment.shard in
  let total ?(labels = []) name =
    List.fold_left
      (fun t i ->
        t
        + Report.count m.Experiment.registry
            ~labels:(("shard", string_of_int i) :: labels)
            name)
      0
      (List.init n.Experiment.n_shards Fun.id)
  in
  let tasks klass = total ~labels:[ ("class", klass) ] "tasks_total" in
  Alcotest.(check int) "shard 1 crashed once" 1 (total "shard_crashes_total");
  Alcotest.(check int) "n_updates sums the shards" (tasks "update")
    m.Experiment.n_updates;
  Alcotest.(check int) "n_recompute sums the shards" (tasks "recompute")
    m.Experiment.n_recompute;
  Alcotest.(check int) "n_firings sums the shards"
    (total "rule_firings_total")
    m.Experiment.n_firings;
  Alcotest.(check int) "no task retries" 0 m.Experiment.n_retries;
  Alcotest.(check int) "mean_recovery_s is retry latency: no sample" 0
    (Report.count m.Experiment.registry "recoveries_total");
  Alcotest.(check bool) "mean_recovery_s is retry latency" true
    (Strip_obs.Json.member "mean_recovery_s" (Report.metrics_json m)
    = Some (Strip_obs.Json.Float 0.0));
  match m.Experiment.recovery with
  | Some r ->
    Alcotest.(check bool) "crash downtime is total_recovery_s" true
      (r.Experiment.total_recovery_s > 0.0)
  | None -> Alcotest.fail "recovery metrics missing"

(* A link that drops every message: no partial is ever acked, so the
   protocol can never quiesce.  The run must say so, not end silently
   with only a cross-shard divergence to show for it. *)
let test_never_quiescent_raises () =
  let cfg =
    sharded_cfg ~shards:2
      (Experiment.Comp_view Comp_rules.Unique_on_comp)
      ~delay:1.0
  in
  let s = Option.get cfg.Experiment.shard in
  let cfg =
    {
      (Experiment.quick cfg 0.2) with
      Experiment.shard =
        Some
          {
            s with
            Experiment.shard_link =
              { s.Experiment.shard_link with Strip_repl.Link.drop_rate = 1.0 };
          };
    }
  in
  match Experiment.run cfg with
  | _ -> Alcotest.fail "the run ended although no partial was ever acked"
  | exception Failure msg ->
    let ticks, unacked, sids =
      Scanf.sscanf msg
        "Experiment.run: shards not quiescent %d ticks past the feed: %d \
         partial(s) unacked, on shard(s) %[0-9, ]"
        (fun t u s -> (t, u, s))
    in
    Alcotest.(check int) "names the bound" 10_000 ticks;
    Alcotest.(check bool) "counts the unacked partials" true (unacked > 0);
    Alcotest.(check bool) "names the shards" true (sids <> "")

(* A lossy shard link under a shard crash: drops force reships, the
   reships reach owners that already merged the first copy, and the
   crashed shard asks each owner for its floor and ships what lies above
   it.  Seqs count per (emitter, owner), so an ack must retire only what
   the floor of the owner it came from covers.  An owner acks each
   source at most once a tick, so no more acks go out than partials
   arrive. *)
let test_lossy_link_with_crash () =
  let cfg =
    sharded_cfg ~shards:3
      ~crash:(1, Strip_market.Feed.(scaled default_config scale).duration /. 2.0)
      (Experiment.Comp_view Comp_rules.Unique_on_comp)
      ~delay:1.0
  in
  let s = Option.get cfg.Experiment.shard in
  let cfg =
    {
      cfg with
      Experiment.shard =
        Some
          {
            s with
            Experiment.shard_link =
              { s.Experiment.shard_link with Strip_repl.Link.drop_rate = 0.2 };
          };
    }
  in
  let m = Experiment.run cfg in
  Alcotest.(check (option bool)) "views verified" (Some true)
    m.Experiment.verified;
  (match m.Experiment.shard with
  | None -> Alcotest.fail "shard metrics missing"
  | Some s ->
    Alcotest.(check int) "cross-shard audit clean" 0
      s.Experiment.cross_divergences;
    Alcotest.(check bool) "drops forced reships" true
      (s.Experiment.sh_reships > 0);
    Alcotest.(check bool) "owners collapsed duplicates" true
      (List.fold_left
         (fun n r -> n + r.Experiment.sh_duplicates)
         0 s.Experiment.sh_rows
      > 0);
    Alcotest.(check bool) "no more acks than partials delivered" true
      (s.Experiment.sh_acks
      <= List.fold_left
           (fun n r -> n + r.Experiment.sh_offered)
           0 s.Experiment.sh_rows));
  match m.Experiment.recovery with
  | Some r ->
    Alcotest.(check bool) "shard 1 crashed" true (r.Experiment.n_crashes >= 1);
    Alcotest.(check bool) "recovery audit clean" true r.Experiment.audit_clean
  | None -> Alcotest.fail "recovery metrics missing"

(* A clean 3-shard run, driven through the coordinator directly so the
   shard logs can be read after it.  Past quiescence, a fresh snapshot
   of each shard holds one watermark per source, no seq above any, and
   each floor is exactly the count its source stamped towards this
   owner: the snapshot is O(shards), not O(run). *)
let test_state_snapshot_bounded () =
  let n = 3 in
  let cfg =
    Experiment.quick
      (Experiment.default_config
         (Experiment.Comp_view Comp_rules.Unique_on_comp)
         ~delay:1.0)
      scale
  in
  let p = Partitioner.create ~shards:n in
  let dbs =
    Array.init n (fun _ ->
        Experiment.mk_db ~durable:(Strip_txn.Durable.create ()) cfg)
  in
  let hs =
    Pta_tables.populate_sharded dbs
      ~owner_sym:(Partitioner.shard_of_symbol p)
      ~owner_comp:(Partitioner.shard_of_comp p)
      ~feed:cfg.Experiment.feed cfg.Experiment.sizes
  in
  Array.iteri
    (fun sid db ->
      Comp_rules.install_routed db hs.(sid) ~sid
        ~owner:(Partitioner.shard_of_comp p) Comp_rules.Unique_on_comp
        ~delay:1.0)
    dbs;
  let coord =
    Strip_shard.Coordinator.create ~link:Strip_repl.Link.default_config
      ~apply:(fun ~sid txn ~key ~delta ->
        Comp_rules.apply_partial hs.(sid) txn ~key ~delta)
      dbs
  in
  Strip_shard.Coordinator.checkpoint_all coord;
  let quotes = Strip_market.Feed.generate cfg.Experiment.feed in
  Array.iteri
    (fun sid db ->
      let mine =
        List.filter
          (fun (q : Strip_market.Feed.quote) ->
            Partitioner.shard_of_symbol p
              (Strip_market.Taq.symbol q.Strip_market.Feed.stock)
            = sid)
          (Array.to_list quotes)
      in
      ignore
        (Strip_ingest.Import.replay db
           {
             Strip_ingest.Import.stocks = hs.(sid).Pta_tables.stocks;
             by_symbol = hs.(sid).Pta_tables.stocks_by_symbol;
           }
           (Array.of_list mine)))
    dbs;
  let rec drive now =
    Array.iter (fun db -> Strip_core.Strip_db.run ~until:now db) dbs;
    Strip_shard.Coordinator.step coord ~now;
    if
      now < cfg.Experiment.feed.Strip_market.Feed.duration
      || not (Strip_shard.Coordinator.quiescent coord)
    then drive (now +. 0.05)
  in
  drive 0.05;
  Strip_shard.Coordinator.checkpoint_all coord;
  let last_state db =
    let w =
      Strip_txn.Durable.wal (Option.get (Strip_core.Strip_db.durable db))
    in
    match
      List.filter_map
        (function
          | _, Wal.Shard_state s -> Some (s.out_seqs, s.watermarks)
          | _ -> None)
        (Wal.read w).Wal.records
      |> List.rev
    with
    | last :: _ -> last
    | [] -> Alcotest.fail "no Shard_state logged"
  in
  let states = Array.map last_state dbs in
  let floors = ref 0 in
  Array.iteri
    (fun dst (_, watermarks) ->
      let name = Printf.sprintf "shard %d" dst in
      ignore (merged_set name watermarks);
      for src = 0 to n - 1 do
        let sent =
          Option.value ~default:0 (List.assoc_opt dst (fst states.(src)))
        in
        match List.find_opt (fun (s, _, _) -> s = src) watermarks with
        | None ->
          Alcotest.(check int) (Printf.sprintf "%s: nothing from %d" name src)
            0 sent
        | Some (_, floor, above) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: no seq from %d above the watermark" name src)
            [] above;
          Alcotest.(check int)
            (Printf.sprintf "%s: watermark of %d is what it sent" name src)
            sent floor;
          floors := !floors + floor
      done)
    states;
  Alcotest.(check bool) "partials crossed shards" true (!floors > 0)

(* Overload shedding on a sharded run must not lose cross-shard
   partials.  A shard's [shard_apply] task carries no bound rows, so no
   victim can coalesce into it; were its submission to start a shed, the
   victim would be dropped and its composites would diverge. *)
let test_overload_keeps_partials () =
  let cfg =
    sharded_cfg ~shards:3
      (Experiment.Comp_view Comp_rules.Unique_on_symbol)
      ~delay:1.0
  in
  let cfg =
    {
      cfg with
      Experiment.overload =
        Some
          {
            Strip_sim.Engine.high_watermark = 2;
            shed_policy = Strip_sim.Engine.Coalesce;
          };
    }
  in
  let m = Experiment.run cfg in
  Alcotest.(check bool) "overload shed rule tasks" true (m.Experiment.n_sheds > 0);
  Alcotest.(check bool) "views verified" true (m.Experiment.verified = Some true);
  match m.Experiment.shard with
  | None -> Alcotest.fail "shard metrics missing"
  | Some s ->
    Alcotest.(check int) "no cross-shard divergences" 0 s.Experiment.cross_divergences

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
        Alcotest.test_case "dqueue: watermarks match the hashtable reference"
          `Quick test_dqueue_differential;
        Alcotest.test_case "dqueue: source ids and restore input" `Quick
          test_dqueue_contract;
        Alcotest.test_case "scan_log: replay matches the list fold" `Quick
          test_scan_log_differential;
        Alcotest.test_case "partitioned population unions to the whole" `Slow
          test_partition_union;
        Alcotest.test_case "sharded run: clean cross-shard audit" `Slow
          test_sharded_run_verified;
        Alcotest.test_case "sharded run: in-process determinism" `Slow
          test_sharded_determinism;
        Alcotest.test_case "shard crash without drops re-ships nothing" `Slow
          test_shard_crash_reships_nothing;
        Alcotest.test_case "crash during ship: exactly-once recovery" `Slow
          test_shard_crash_recovery;
        Alcotest.test_case "topology: any shard config runs the coordinator"
          `Slow test_topology_rule;
        Alcotest.test_case "shard crash: counters fold over shards" `Slow
          test_shard_crash_fold;
        Alcotest.test_case "a protocol that never quiesces raises" `Slow
          test_never_quiescent_raises;
        Alcotest.test_case "overload sheds no cross-shard partial" `Slow
          test_overload_keeps_partials;
        Alcotest.test_case "lossy link and a shard crash: exactly once" `Slow
          test_lossy_link_with_crash;
        Alcotest.test_case "shard snapshot: one watermark per source" `Slow
          test_state_snapshot_bounded;
      ] );
  ]
