(* Crash recovery: WAL framing and corruption handling, fuzzy checkpoints,
   restart redo with exactly-once unique batches, crash semantics of the
   engine, and the derived-data consistency auditor. *)

open Strip_relational
open Strip_txn
open Strip_core
open Strip_pta
module Engine = Strip_sim.Engine
module Stats = Strip_sim.Stats

(* ------------------------------------------------------------------ *)
(* WAL: append / fsync / read round-trip *)

let sample_ops =
  [
    Wal.Insert
      {
        table = "t";
        order = 1;
        values = [| Value.Int 1; Value.Str "a"; Value.Float 1.5 |];
      };
    Wal.Update
      {
        table = "t";
        order = 2;
        old_values = [| Value.Int 1; Value.Str "a"; Value.Float 1.5 |];
        new_values = [| Value.Int 1; Value.Str "a"; Value.Float 2.5 |];
      };
    Wal.Delete
      { table = "u"; order = 3; values = [| Value.Null; Value.Bool true |] };
  ]

let sample_records =
  [
    Wal.Commit { txid = 7; time = 1.25; ops = sample_ops };
    Wal.Uq_enqueue
      {
        func = "f";
        key = [ Value.Str "S1" ];
        release_time = 2.0;
        created_at = 1.0;
        bound = [ ("matches", [ [| Value.Str "C1"; Value.Float 0.5 |] ]) ];
      };
    Wal.Uq_merge
      {
        func = "f";
        key = [ Value.Str "S1" ];
        bound = [ ("matches", [ [| Value.Str "C2"; Value.Float 0.25 |] ]) ];
      };
    Wal.Uq_release { func = "f"; key = [ Value.Str "S1" ] };
    Wal.Checkpoint_mark { time = 3.0; lsn = 0 };
  ]

let test_wal_roundtrip () =
  let w = Wal.create () in
  let lsns = List.map (Wal.append w) sample_records in
  Alcotest.(check bool) "LSNs strictly increase" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < 4) lsns) (List.tl lsns));
  Alcotest.(check int) "nothing durable before fsync" 0 (Wal.durable_bytes w);
  Wal.fsync w;
  Alcotest.(check int) "all bytes durable after fsync" (Wal.appended_bytes w)
    (Wal.durable_bytes w);
  let r = Wal.read w in
  Alcotest.(check (option int)) "no torn tail" None r.Wal.torn_at;
  Alcotest.(check (option int)) "no corruption" None r.Wal.corrupt_at;
  Alcotest.(check int) "every record read back" (List.length sample_records)
    (List.length r.Wal.records);
  List.iter2
    (fun expected (lsn, got) ->
      Alcotest.(check bool)
        (Printf.sprintf "record at lsn %d round-trips" lsn)
        true (expected = got))
    sample_records r.Wal.records;
  Alcotest.(check (list int)) "read returns the append LSNs" lsns
    (List.map fst r.Wal.records)

let test_wal_ops_of_tlog_order () =
  (* The redo ops must preserve the transaction's execute_order and full
     images, straight from the Tlog a commit would hand to the rule
     system. *)
  let db = Strip_db.create () in
  Strip_db.exec_script db
    {|create table t (k int, v float);
      insert into t values (1, 1.0), (2, 2.0)|};
  Strip_db.with_txn db (fun txn ->
      ignore (Transaction.exec txn "insert into t values (3, 3.0)");
      ignore (Transaction.exec txn "update t set v = 9.0 where k = 1");
      ignore (Transaction.exec txn "delete from t where k = 2");
      let ops = Wal.ops_of_tlog (Transaction.log txn) in
      Alcotest.(check (list int)) "execute_order preserved" [ 1; 2; 3 ]
        (List.map Wal.op_order ops);
      match ops with
      | [
       Wal.Insert { values = iv; _ };
       Wal.Update { old_values; new_values; _ };
       Wal.Delete { values = dv; _ };
      ] ->
        Alcotest.(check bool) "insert image" true
          (iv = [| Value.Int 3; Value.Float 3.0 |]);
        Alcotest.(check bool) "update old image" true
          (old_values = [| Value.Int 1; Value.Float 1.0 |]);
        Alcotest.(check bool) "update new image" true
          (new_values = [| Value.Int 1; Value.Float 9.0 |]);
        Alcotest.(check bool) "delete image" true
          (dv = [| Value.Int 2; Value.Float 2.0 |])
      | _ -> Alcotest.fail "expected [insert; update; delete]")

let test_wal_lose_tail () =
  let w = Wal.create () in
  let a = Wal.Commit { txid = 1; time = 0.1; ops = [] } in
  let b = Wal.Commit { txid = 2; time = 0.2; ops = [] } in
  let c = Wal.Commit { txid = 3; time = 0.3; ops = [] } in
  ignore (Wal.append w a);
  Wal.fsync w;
  ignore (Wal.append w b);
  Alcotest.(check bool) "b is pending" true (Wal.pending_bytes w > 0);
  Wal.lose_tail w;
  Alcotest.(check int) "pending tail gone" 0 (Wal.pending_bytes w);
  Alcotest.(check (list bool)) "only the fsynced record survives" [ true ]
    (List.map (fun (_, r) -> r = a) (Wal.read w).Wal.records);
  (* the log stays appendable after a crash *)
  ignore (Wal.append w c);
  Wal.fsync w;
  Alcotest.(check int) "append after crash works" 2
    (List.length (Wal.read w).Wal.records)

let test_wal_torn_tail () =
  let w = Wal.create () in
  let a = Wal.Commit { txid = 1; time = 0.1; ops = sample_ops } in
  let b = Wal.Commit { txid = 2; time = 0.2; ops = sample_ops } in
  ignore (Wal.append w a);
  let lsn_b = Wal.append w b in
  Wal.fsync w;
  let s = Wal.durable_contents w in
  (* chop the last record mid-frame: an incomplete final entry is a torn
     write, dropped without declaring the log corrupt *)
  Wal.set_durable_for_test w (String.sub s 0 (String.length s - 3));
  let r = Wal.read w in
  Alcotest.(check int) "prefix readable" 1 (List.length r.Wal.records);
  Alcotest.(check (option int)) "torn tail reported" (Some lsn_b) r.Wal.torn_at;
  Alcotest.(check (option int)) "not corruption" None r.Wal.corrupt_at

let test_wal_tail_cut_at_frame_boundary () =
  (* A crash that lands exactly on a frame boundary leaves a clean log:
     the last full record survives and nothing is reported torn.  One
     byte either side of the boundary must still classify as torn. *)
  let w = Wal.create () in
  let a = Wal.Commit { txid = 1; time = 0.1; ops = sample_ops } in
  let b = Wal.Commit { txid = 2; time = 0.2; ops = sample_ops } in
  let lsn_a = Wal.append w a in
  let lsn_b = Wal.append w b in
  Wal.fsync w;
  let s = Wal.durable_contents w in
  let boundary = lsn_b - lsn_a in
  (* exactly on the boundary: b never made it at all — clean *)
  Wal.set_durable_for_test w (String.sub s 0 boundary);
  let r = Wal.read w in
  Alcotest.(check (option int)) "boundary cut is clean" None r.Wal.torn_at;
  Alcotest.(check (option int)) "boundary cut is not corrupt" None
    r.Wal.corrupt_at;
  Alcotest.(check (list int)) "whole prefix read" [ lsn_a ]
    (List.map fst r.Wal.records);
  (* one byte past the boundary: a sliver of b's header — torn at b *)
  Wal.set_durable_for_test w (String.sub s 0 (boundary + 1));
  let r = Wal.read w in
  Alcotest.(check (option int)) "boundary+1 torn at b" (Some lsn_b)
    r.Wal.torn_at;
  Alcotest.(check int) "a still read" 1 (List.length r.Wal.records);
  (* one byte short of the boundary: a's frame is incomplete — torn at a *)
  Wal.set_durable_for_test w (String.sub s 0 (boundary - 1));
  let r = Wal.read w in
  Alcotest.(check (option int)) "boundary-1 torn at a" (Some lsn_a)
    r.Wal.torn_at;
  Alcotest.(check int) "nothing read" 0 (List.length r.Wal.records)

let test_wal_append_batch_equivalence () =
  (* append_batch is a pure encoding optimisation: byte stream, LSNs and
     meter ticks must match the per-record appends exactly. *)
  let one = Wal.create () and batch = Wal.create () in
  Meter.reset ();
  let before = Meter.snapshot () in
  let lsns_one = List.map (Wal.append one) sample_records in
  let ticks_one = Meter.diff before (Meter.snapshot ()) in
  let before = Meter.snapshot () in
  let lsns_batch = Wal.append_batch batch sample_records in
  let ticks_batch = Meter.diff before (Meter.snapshot ()) in
  Wal.fsync one;
  Wal.fsync batch;
  Alcotest.(check (list int)) "same LSNs" lsns_one lsns_batch;
  Alcotest.(check string) "same bytes" (Wal.durable_contents one)
    (Wal.durable_contents batch);
  Alcotest.(check (list (pair string int))) "same meter ticks" ticks_one
    ticks_batch;
  Alcotest.(check int) "same append count" (Wal.n_appends one)
    (Wal.n_appends batch);
  Alcotest.(check (list int)) "empty batch appends nothing" []
    (Wal.append_batch batch []);
  Alcotest.(check int) "volume accounted" (Wal.appended_bytes one)
    (Wal.appended_bytes batch)

let test_wal_mid_log_corruption () =
  let w = Wal.create () in
  let a = Wal.Commit { txid = 1; time = 0.1; ops = sample_ops } in
  let b = Wal.Commit { txid = 2; time = 0.2; ops = sample_ops } in
  let c = Wal.Commit { txid = 3; time = 0.3; ops = sample_ops } in
  let lsn_a = Wal.append w a in
  let lsn_b = Wal.append w b in
  ignore (Wal.append w c);
  Wal.fsync w;
  let s = Bytes.of_string (Wal.durable_contents w) in
  (* flip one payload byte of the middle record: valid entries follow, so
     this is mid-log corruption, and scanning must stop there rather than
     resynchronize on garbage *)
  let off = lsn_b - lsn_a + 10 in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xff));
  Wal.set_durable_for_test w (Bytes.to_string s);
  let r = Wal.read w in
  Alcotest.(check int) "only the prefix is trusted" 1 (List.length r.Wal.records);
  Alcotest.(check (option int)) "corruption reported at the bad entry"
    (Some lsn_b) r.Wal.corrupt_at

let test_wal_truncate () =
  let w = Wal.create () in
  let a = Wal.Commit { txid = 1; time = 0.1; ops = [] } in
  let b = Wal.Commit { txid = 2; time = 0.2; ops = sample_ops } in
  ignore (Wal.append w a);
  let lsn_b = Wal.append w b in
  Wal.fsync w;
  Wal.truncate_to w ~lsn:lsn_b;
  Alcotest.(check int) "base moved to the checkpoint LSN" lsn_b (Wal.base_lsn w);
  let r = Wal.read w in
  Alcotest.(check (list int)) "later entries keep their LSNs" [ lsn_b ]
    (List.map fst r.Wal.records);
  Alcotest.(check bool) "record intact" true
    (snd (List.hd r.Wal.records) = b);
  Alcotest.(check bool) "LSN outside the durable log rejected" true
    (match Wal.truncate_to w ~lsn:(Wal.durable_end w + 1) with
    | exception Wal.Out_of_range _ -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* Codec: CRC-32 and fixed-width integers *)

(* The classic bytewise CRC-32, the reference for the slice-by-8 one. *)
let crc32_bytewise s ~pos ~len =
  let tbl =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := tbl.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc32 () =
  Alcotest.(check int) "check value" 0xCBF43926 (Codec.crc32 "123456789");
  Alcotest.(check int) "empty string" 0 (Codec.crc32 "");
  let st = Random.State.make [| 42 |] in
  let data = String.init 1024 (fun _ -> Char.chr (Random.State.int st 256)) in
  for _ = 1 to 2000 do
    let len = Random.State.int st 301 in
    let pos = Random.State.int st (String.length data - len + 1) in
    Alcotest.(check int)
      (Printf.sprintf "slice pos=%d len=%d" pos len)
      (crc32_bytewise data ~pos ~len)
      (Codec.crc32 ~pos ~len data)
  done;
  List.iter
    (fun (pos, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "range pos=%d len=%d rejected" pos len)
        true
        (match Codec.crc32 ~pos ~len data with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ (-1, 4); (0, -1); (1020, 5); (1025, 0); (0, 1025) ];
  (* the word-at-a-time kernel at every alignment of its two 32-bit
     loads and at lengths past many 8-byte steps, over random bytes and
     over all-0xff bytes (whose loads sign-extend); continued across a
     random split through the positional [crc32_sub], which must reject
     the same ranges as [crc32] *)
  let big = String.init 65536 (fun _ -> Char.chr (Random.State.int st 256)) in
  let ones = String.make 4096 '\xff' in
  List.iter
    (fun (name, data) ->
      for i = 1 to 3000 do
        let len =
          if i <= 400 then i mod 40
          else Random.State.int st (min 5000 (String.length data))
        in
        let pos = Random.State.int st (String.length data - len + 1) in
        let what = Printf.sprintf "%s pos=%d len=%d" name pos len in
        let want = crc32_bytewise data ~pos ~len in
        Alcotest.(check int) what want (Codec.crc32 ~pos ~len data);
        let k = Random.State.int st (len + 1) in
        Alcotest.(check int) ("split " ^ what) want
          (Codec.crc32_sub (Codec.crc32_sub 0 data pos k) data (pos + k) (len - k))
      done)
    [ ("random", big); ("0xff", ones) ];
  List.iter
    (fun (pos, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "crc32_sub range pos=%d len=%d rejected" pos len)
        true
        (match Codec.crc32_sub 0 data pos len with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ (-1, 4); (0, -1); (1020, 5); (1025, 0); (0, 1025) ]

(* CRC-32 combination and continuation, both against the CRC of the
   concatenation, over random strings and split points (empty parts
   included). *)
let random_string st n =
  String.init n (fun _ -> Char.chr (Random.State.int st 256))

let random_split st =
  let a = random_string st (Random.State.int st 200) in
  let nb = if Random.State.int st 5 = 0 then 0 else Random.State.int st 3000 in
  (a, random_string st nb)

let test_crc32_combine () =
  Alcotest.(check int) "check value" 0xCBF43926 (Codec.crc32 "123456789");
  Alcotest.(check int) "combined check value" 0xCBF43926
    (Codec.crc32_combine (Codec.crc32 "1234") (Codec.crc32 "56789") 5);
  Alcotest.(check int) "len2 = 0 keeps crc1" (Codec.crc32 "abc")
    (Codec.crc32_combine (Codec.crc32 "abc") 0 0);
  Alcotest.(check int) "empty first part" (Codec.crc32 "abc")
    (Codec.crc32_combine 0 (Codec.crc32 "abc") 3);
  let st = Random.State.make [| 7 |] in
  for i = 1 to 500 do
    let a, b = random_split st in
    Alcotest.(check int)
      (Printf.sprintf "combine #%d |a|=%d |b|=%d" i (String.length a)
         (String.length b))
      (Codec.crc32 (a ^ b))
      (Codec.crc32_combine (Codec.crc32 a) (Codec.crc32 b) (String.length b))
  done;
  (* a long second part exercises the high bits of the length *)
  let a = random_string st 17 and b = random_string st 1_000_003 in
  Alcotest.(check int) "combine over a long part" (Codec.crc32 (a ^ b))
    (Codec.crc32_combine (Codec.crc32 a) (Codec.crc32 b) (String.length b));
  (* lengths far beyond any test string: combining is associative,
     which a wrong power of x in the combine's table would break *)
  for i = 1 to 200 do
    let c () = Random.State.bits st lor (Random.State.int st 4 lsl 30) in
    let c1 = c () and c2 = c () and c3 = c () in
    let n2 = Random.State.bits st * (1 + Random.State.int st 1024)
    and n3 = Random.State.bits st in
    Alcotest.(check int)
      (Printf.sprintf "associative #%d n2=%d n3=%d" i n2 n3)
      (Codec.crc32_combine (Codec.crc32_combine c1 c2 n2) c3 n3)
      (Codec.crc32_combine c1 (Codec.crc32_combine c2 c3 n3) (n2 + n3))
  done;
  Alcotest.(check bool) "negative length rejected" true
    (match Codec.crc32_combine 0 0 (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_crc32_continue () =
  Alcotest.(check int) "check value continued" 0xCBF43926
    (Codec.crc32 ~crc:(Codec.crc32 "1234") "56789");
  let st = Random.State.make [| 8 |] in
  for i = 1 to 500 do
    let a, b = random_split st in
    let whole = Codec.crc32 (a ^ b) in
    let what =
      Printf.sprintf "#%d |a|=%d |b|=%d" i (String.length a) (String.length b)
    in
    Alcotest.(check int) ("continue " ^ what) whole
      (Codec.crc32 ~crc:(Codec.crc32 a) b);
    Alcotest.(check int) ("positional " ^ what) whole
      (Codec.crc32_sub (Codec.crc32_sub 0 a 0 (String.length a)) b 0
         (String.length b));
    Alcotest.(check int) ("continue = combine " ^ what)
      (Codec.crc32_combine (Codec.crc32 a) (Codec.crc32 b) (String.length b))
      (Codec.crc32 ~crc:(Codec.crc32 a) b);
    (* continuation over a substring *)
    let ab = a ^ b in
    Alcotest.(check int) ("continue a substring " ^ what) whole
      (Codec.crc32 ~crc:(Codec.crc32 ~len:(String.length a) ab)
         ~pos:(String.length a) ab)
  done

(* A checking reader runs the decoding grammar without building: over
   random value encodings, cut short, padded or with one byte changed,
   it accepts exactly what a decoding reader accepts, stops at the same
   position, fails on the same inputs, and allocates nothing. *)
let test_check_reader () =
  let st = Random.State.make [| 99 |] in
  let value () =
    match Random.State.int st 5 with
    | 0 -> Value.Null
    | 1 -> Value.Bool (Random.State.bool st)
    | 2 -> Value.Int (Random.State.bits st - (1 lsl 29))
    | 3 -> Value.Float (Random.State.float st 1e6)
    | _ -> Value.Str (random_string st (Random.State.int st 9))
  in
  let read r =
    ignore (Codec.get_float r);
    ignore (Codec.get_list r Codec.get_values);
    ignore (Codec.get_string r);
    ignore (Codec.get_ty r);
    ignore (Codec.get_int r)
  in
  let outcome ~check s =
    let r = Codec.reader ~pos:1 ~len:(String.length s - 2) ~check s in
    match read r with
    | _ -> Ok (Codec.position r)
    | exception Codec.Decode_error _ -> Error ()
  in
  for i = 1 to 2000 do
    let b = Buffer.create 64 in
    Codec.put_float b (Random.State.float st 1.0);
    Codec.put_list b Codec.put_values
      (List.init (Random.State.int st 4) (fun _ ->
           Array.init (Random.State.int st 4) (fun _ -> value ())));
    Codec.put_string b (random_string st (Random.State.int st 6));
    Codec.put_ty b Value.TFloat;
    Codec.put_int b (Random.State.bits st);
    let enc = Buffer.contents b in
    let enc =
      match Random.State.int st 4 with
      | 0 -> enc
      | 1 -> String.sub enc 0 (Random.State.int st (String.length enc))
      | 2 -> enc ^ "\000"
      | _ ->
        let k = Random.State.int st (String.length enc) in
        String.mapi
          (fun j c -> if j = k then Char.chr (Random.State.int st 256) else c)
          enc
    in
    (* one guard byte each side: the reader's range, not the string,
       bounds it *)
    let s = "\001" ^ enc ^ "\001" in
    let what = Printf.sprintf "#%d |enc|=%d" i (String.length enc) in
    Alcotest.(check bool) what true (outcome ~check:false s = outcome ~check:true s);
    if outcome ~check:true s <> Error () then begin
      let r = Codec.reader ~pos:1 ~len:(String.length enc) ~check:true s in
      let before = Gc.minor_words () in
      read r;
      Alcotest.(check (float 0.)) ("no allocation " ^ what) 0.
        (Gc.minor_words () -. before)
    end
  done

let test_int_writers () =
  let b = Buffer.create 32 in
  Codec.put_u32 b 0x04030201;
  Codec.put_u32 b 0xFFFFFFFF;
  Codec.put_int b 0x0807060504030201;
  Codec.put_int b (-2);
  Alcotest.(check string) "little-endian layout"
    "\001\002\003\004\255\255\255\255\001\002\003\004\005\006\007\008\254\255\255\255\255\255\255\255"
    (Buffer.contents b);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "put_u32 %d rejected" i)
        true
        (match Codec.put_u32 b i with
        | exception Invalid_argument _ -> true
        | () -> false))
    [ -1; 0x100000000 ]

(* One row write, the paper's Table 1 cursor update (open, lock, fetch,
   update, close), through [Db_ops.update_by_key]: a key-preserving
   update of one row of a table with one hash index, inside an open
   transaction that has already written another row.  What it may
   allocate: the new version and its values copy, the index's key list
   and posting cell, the cursor and its fetched option, the record lock
   (its resource, entry, table binding, holder cell and owned-list cell),
   the pinned pre-image cell and the [Tlog] entry.  Nothing per call is
   built for the transaction's hooks, the table's node or the lock
   table's probes. *)
let row_write_words = 57.

let test_row_write_allocation () =
  let cat = Catalog.create () in
  let tb =
    Catalog.create_table cat ~name:"stocks"
      ~schema:(Schema.of_list [ ("symbol", Value.TStr); ("price", Value.TFloat) ])
  in
  let idx = Table.create_index tb ~name:"by_symbol" ~kind:Index.Hash ~cols:[ "symbol" ] in
  ignore (Table.insert tb [| Value.Str "A"; Value.Float 1.0 |]);
  ignore (Table.insert tb [| Value.Str "B"; Value.Float 1.0 |]);
  let locks = Lock.create () and clock = Clock.create () in
  let key_a = [ Value.Str "A" ] and key_b = [ Value.Str "B" ] in
  let price = Value.Float 2.0 in
  let set (values : Value.t array) =
    values.(1) <- price;
    values
  in
  let write txn key =
    Alcotest.(check int) "one row written" 1 (Db_ops.update_by_key txn tb idx key set)
  in
  (* warm-up: committed transactions over both rows *)
  for _ = 1 to 3 do
    let txn = Transaction.begin_ ~cat ~locks ~clock () in
    write txn key_a;
    write txn key_b;
    Transaction.commit txn;
    Transaction.cleanup txn
  done;
  let txn = Transaction.begin_ ~cat ~locks ~clock () in
  write txn key_b;
  let before = Gc.minor_words () in
  let n = Db_ops.update_by_key txn tb idx key_a set in
  let w = Gc.minor_words () -. before in
  Transaction.commit txn;
  Transaction.cleanup txn;
  Alcotest.(check int) "row written" 1 n;
  Alcotest.(check bool)
    (Printf.sprintf "one row write: %.0f words, budget %.0f" w row_write_words)
    true (w <= row_write_words)

(* One rule check and its firing (§6.3, Appendix A): the commit of a
   one-row price update whose [unique on comp] condition yields [k] rows,
   one per composite holding the stock, each merging into that
   composite's queued batch.  Measured as [rule_check_words_fixed +
   rule_check_words_per_key * k] words.  The fixed part is the check: the
   commit, the four transition tables and their environment, the
   condition's scans, probe key and result record, the partition's
   tables and the firing's per-table bookkeeping.  Per key it is the
   result row (its values and record pointers in the flat buffer), the
   partition's entries for it, the key list handed to [Unique.find] and
   the find's probe.  No row is materialized on its own, no per-row list
   cell is built, and a merge builds no combination, part list or
   closure.  (Up to 32 keys, so that no array of the check is large
   enough to be allocated outside the minor heap, where [Gc.minor_words]
   would not see it.) *)
let rule_check_words_fixed = 600.
let rule_check_words_per_key = 24.

let rule_check_words ~k =
  let cat = Catalog.create () in
  let stocks =
    Catalog.create_table cat ~name:"stocks"
      ~schema:(Schema.of_list [ ("symbol", Value.TStr); ("price", Value.TFloat) ])
  in
  let by_symbol =
    Table.create_index stocks ~name:"stocks_sym" ~kind:Index.Hash ~cols:[ "symbol" ]
  in
  let comps =
    Catalog.create_table cat ~name:"comps_list"
      ~schema:
        (Schema.of_list
           [ ("comp", Value.TStr); ("symbol", Value.TStr); ("weight", Value.TFloat) ])
  in
  ignore (Table.create_index comps ~name:"cl_sym" ~kind:Index.Hash ~cols:[ "symbol" ]);
  ignore (Table.insert stocks [| Value.Str "S"; Value.Float 1.0 |]);
  for c = 1 to k do
    ignore
      (Table.insert comps
         [| Value.Str (Printf.sprintf "C%d" c); Value.Str "S"; Value.Float 0.5 |])
  done;
  let locks = Lock.create () and clock = Clock.create () in
  let mgr =
    Rule_manager.create ~cat ~locks ~clock ~stats:(Strip_sim.Stats.create ()) ()
  in
  Rule_manager.set_submitter mgr ignore;
  Rule_manager.register_function mgr "f" ignore;
  Rule_manager.create_rule_text mgr
    {|create rule r on stocks when updated price
      if select comp, comps_list.symbol as symbol, weight,
                old.price as old_price, new.price as new_price
         from comps_list, new, old
         where comps_list.symbol = new.symbol
           and new.execute_order = old.execute_order
         bind as matches
      then execute f unique on comp after 1000 seconds|};
  let key = [ Value.Str "S" ] in
  let updated n =
    let txn = Transaction.begin_ ~cat ~locks ~clock () in
    let price = Value.Float (float_of_int (n + 1)) in
    ignore
      (Db_ops.update_by_key txn stocks by_symbol key (fun values ->
           values.(1) <- price;
           values));
    txn
  in
  (* the first commit queues one batch per composite; later ones merge *)
  for n = 1 to 3 do
    Rule_manager.commit_txn mgr (updated n)
  done;
  let txn = updated 4 in
  let before = Gc.minor_words () in
  Rule_manager.commit_txn mgr txn;
  let w = Gc.minor_words () -. before in
  Alcotest.(check int) "every firing after the first merged" (3 * k)
    (Rule_manager.n_merges mgr);
  w

let test_rule_check_allocation () =
  List.iter
    (fun k ->
      let w = rule_check_words ~k in
      let budget = rule_check_words_fixed +. (rule_check_words_per_key *. float_of_int k) in
      Alcotest.(check bool)
        (Printf.sprintf "rule check merging %d keys: %.0f words, budget %.0f" k w budget)
        true (w <= budget))
    [ 1; 2; 4; 8; 16; 32 ]

(* Writing an int or a u32 boxes nothing, nor does writing a float that
   is already boxed; reading an int boxes nothing and reading a float
   boxes only the float it returns: none goes through a boxed [int32] or
   [int64] (3 words a call).  Decoding a list or a value array therefore
   allocates its cells and constructors and nothing per 8-byte field
   beyond them. *)
let test_fixed_width_reads_unboxed () =
  let n = 1000 in
  let b = Buffer.create (n * 16) and ub = Buffer.create (n * 4) in
  let floats = List.init n (fun i -> float_of_int (i + 1) /. 3.0) in
  let rec put_floats = function
    | [] -> ()
    | f :: tl ->
      Codec.put_float b f;
      put_floats tl
  in
  let alloc f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let w =
    alloc (fun () ->
        for i = 1 to n do
          Codec.put_int b (i * 7919)
        done)
  in
  Alcotest.(check (float 0.)) "put_int allocates nothing" 0. w;
  let w = alloc (fun () -> put_floats floats) in
  Alcotest.(check (float 0.)) "put_float of a boxed float allocates nothing" 0. w;
  let w =
    alloc (fun () ->
        for i = 1 to n do
          Codec.put_u32 ub (i * 7919)
        done)
  in
  Alcotest.(check (float 0.)) "put_u32 allocates nothing" 0. w;
  let data = Buffer.contents b in
  let words f =
    let r = Codec.reader data in
    let before = Gc.minor_words () in
    f r;
    Gc.minor_words () -. before
  in
  let ints = ref 0 in
  let w =
    words (fun r ->
        for _ = 1 to n do
          ints := !ints + Codec.get_int r
        done)
  in
  Alcotest.(check int) "ints read back" (7919 * n * (n + 1) / 2) !ints;
  Alcotest.(check (float 0.)) "get_int allocates nothing" 0. w;
  let w =
    words (fun r ->
        Codec.seek r ~pos:(8 * n) ~len:(8 * n);
        for i = 1 to n do
          if Codec.get_float r <> float_of_int i /. 3.0 then
            Alcotest.fail "float read back wrong"
        done)
  in
  (* the returned float's own box (2 words), no int64 box besides *)
  Alcotest.(check bool)
    (Printf.sprintf "get_float: %.1f words per read" (w /. float_of_int n))
    true
    (w <= 2.0 *. float_of_int n);
  (* a decoded value array: one cell per element plus the Value
     constructor and, for floats, the float box *)
  let vb = Buffer.create (n * 9) in
  Codec.put_values vb (Array.init n (fun i -> Value.Int i));
  Codec.put_values vb (Array.init n (fun i -> Value.Float (float_of_int i)));
  let vdata = Buffer.contents vb in
  let r = Codec.reader vdata in
  let before = Gc.minor_words () in
  let ia = Codec.get_values r in
  let fa = Codec.get_values r in
  let w = Gc.minor_words () -. before in
  Alcotest.(check int) "both arrays decoded" (2 * n)
    (Array.length ia + Array.length fa);
  (* cells 2n + headers, Int 2n, Float 2n + float boxes 2n *)
  Alcotest.(check bool)
    (Printf.sprintf "get_values: %.1f words per element" (w /. float_of_int (2 * n)))
    true
    (w <= (3.5 *. float_of_int (2 * n)) +. 64.)

(* ------------------------------------------------------------------ *)
(* Checkpoints *)

let figure4_script =
  {|create table stocks (symbol string, price float);
    create index stocks_sym on stocks (symbol);
    create table comps_list (comp string, symbol string, weight float);
    create index cl_sym on comps_list (symbol);
    insert into stocks values ('S1', 30.0), ('S2', 40.0), ('S3', 50.0);
    insert into comps_list values
      ('C1','S1',0.5), ('C1','S3',0.5), ('C2','S1',0.3), ('C2','S2',0.7)|}

let comp_view_sql =
  "create view comp_prices as select comp, sum(price * weight) as price \
   from stocks, comps_list where stocks.symbol = comps_list.symbol group by \
   comp"

let condition =
  {|select comp, comps_list.symbol as symbol, weight,
           old.price as old_price, new.price as new_price
    from comps_list, new, old
    where comps_list.symbol = new.symbol
      and new.execute_order = old.execute_order
    bind as matches|}

(* Incremental comp_prices maintenance over the bound batch, as in the
   paper's Figure 4/5 example. *)
let install_comp_rule db =
  Strip_db.register_function db "f" (fun ctx ->
      let r =
        Transaction.query ctx.Rule_manager.txn
          "select comp, sum((new_price - old_price) * weight) as diff from \
           matches group by comp"
      in
      List.iter
        (fun row ->
          ignore
            (Transaction.exec ctx.Rule_manager.txn
               (Printf.sprintf
                  "update comp_prices set price += %.17g where comp = '%s'"
                  (Value.to_float row.(1))
                  (Value.to_string row.(0)))))
        (Query.rows r));
  Strip_db.create_rule db
    (Printf.sprintf
       "create rule r on stocks when updated price if %s then execute f \
        unique after 1.0 seconds"
       condition)

let setup_durable_db durable =
  let db = Strip_db.create ~durable () in
  Strip_db.exec_script db figure4_script;
  Strip_db.declare_view db ~sql:comp_view_sql;
  install_comp_rule db;
  db

let test_checkpoint_roundtrip () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db = setup_durable_db durable in
  (* two updates merge into one queued unique batch; stop before its 1 s
     release so the checkpoint must capture it *)
  Strip_db.submit_update db ~at:0.0 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 31.0 where symbol = 'S1'"));
  Strip_db.submit_update db ~at:0.3 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 38.0 where symbol = 'S2'"));
  Strip_db.run db ~until:0.5;
  Strip_db.checkpoint db;
  let encoded =
    match Durable.snapshot durable with
    | Some s -> s
    | None -> Alcotest.fail "checkpoint not installed"
  in
  let cp = Checkpoint.decode encoded in
  Alcotest.(check string) "encode/decode round-trips" encoded
    (Checkpoint.encode cp);
  Alcotest.(check (list string)) "base tables and the view captured"
    [ "stocks"; "comps_list"; "comp_prices" ]
    (List.map (fun (t : Checkpoint.table_snap) -> t.Checkpoint.tname)
       cp.Checkpoint.tables);
  Alcotest.(check (list string)) "view definition captured" [ "comp_prices" ]
    (List.map fst cp.Checkpoint.views);
  (match cp.Checkpoint.queue with
  | [ q ] ->
    Alcotest.(check string) "queued unique transaction captured" "f"
      q.Checkpoint.qfunc;
    Alcotest.(check (float 1e-9)) "with its release time" 1.0
      q.Checkpoint.qrelease_time;
    Alcotest.(check int) "with the merged batch (3 matches rows)" 3
      (List.fold_left
         (fun acc (_, rows) -> acc + List.length rows)
         0 q.Checkpoint.qbound)
  | q -> Alcotest.fail (Printf.sprintf "expected 1 queue entry, got %d" (List.length q)));
  Alcotest.(check int) "log truncated behind the checkpoint"
    (Durable.snapshot_lsn durable)
    (Wal.base_lsn (Durable.wal durable));
  (* the run finishes normally after a checkpoint *)
  Strip_db.run db;
  Alcotest.(check int) "no divergence after drain" 0
    (List.length (Auditor.audit db).Auditor.divergences)

(* ------------------------------------------------------------------ *)
(* Incremental images: each checkpoint reuses the encoded segments of
   unchanged tables, so it is checked differentially against a full
   [encode (capture ...)] of the same state. *)

let checkpoint_matches_capture ~what durable db =
  let rows0 = Meter.get "checkpoint_row" in
  Strip_db.checkpoint db;
  let rows = Meter.get "checkpoint_row" - rows0 in
  let oracle =
    Checkpoint.capture ~cat:(Strip_db.catalog db) ~views:(Strip_db.view_sql db)
      ~reg:(Rule_manager.registry (Strip_db.rules db))
      ~now:(Strip_db.now db) ~wal_lsn:(Durable.snapshot_lsn durable)
  in
  let image = Checkpoint.encode oracle in
  Alcotest.(check bool)
    (what ^ ": installed image equals encode (capture ...)")
    true
    (Durable.snapshot durable = Some image);
  Alcotest.(check int)
    (what ^ ": the slot CRC is the flattened image's")
    (Codec.crc32 image) (Durable.snapshot_crc durable);
  Alcotest.(check int)
    (what ^ ": last_checkpoint_bytes is the image length")
    (String.length image)
    (Durable.last_checkpoint_bytes durable);
  Alcotest.(check int)
    (what ^ ": checkpoint_row charges a full capture")
    (Checkpoint.total_rows oracle) rows

let setup_incremental_db durable =
  let db = setup_durable_db durable in
  Strip_db.exec_script db
    "create table scratch (k int, v float); insert into scratch values (1, \
     1.0), (2, 2.0)";
  db

(* One random step; returns the database to continue with (a crash hands
   over to a freshly recovered instance) and a label for messages. *)
let random_step st durable db ~nidx =
  let k = Random.State.int st 5 and x = float_of_int (Random.State.int st 100) in
  let exec sql = ignore (Strip_db.exec db sql) in
  match Random.State.int st 10 with
  | 0 ->
    exec (Printf.sprintf "insert into scratch values (%d, %g)" k x);
    (db, "insert")
  | 1 ->
    exec (Printf.sprintf "update scratch set v = %g where k = %d" x k);
    (db, "update")
  | 2 ->
    exec (Printf.sprintf "delete from scratch where k = %d" k);
    (db, "delete")
  | 3 ->
    Table.clear (Catalog.table_exn (Strip_db.catalog db) "scratch");
    (db, "clear")
  | 4 ->
    incr nidx;
    exec (Printf.sprintf "create index scratch_ix%d on scratch (k)" !nidx);
    (db, "create_index")
  | 5 ->
    (* fires the rule: a unique batch with bound rows is queued *)
    exec
      (Printf.sprintf "update stocks set price = %g where symbol = 'S%d'"
         (x +. 1.0) ((k mod 3) + 1));
    (db, "rule-firing update")
  | 6 ->
    (try
       Strip_db.with_txn db (fun txn ->
           ignore
             (Transaction.exec txn
                (Printf.sprintf "update stocks set price = %g where symbol = 'S1'" x));
           ignore
             (Transaction.exec txn
                (Printf.sprintf "insert into scratch values (%d, %g)" k x));
           ignore
             (Transaction.exec txn
                (Printf.sprintf "delete from scratch where k = %d" k));
           raise Exit)
     with Exit -> ());
    (db, "aborted transaction")
  | 7 ->
    (* release queued batches, which update the comp_prices view *)
    Strip_db.run db ~until:(Strip_db.now db +. 1.5);
    (db, "run")
  | 8 ->
    (* a new physical table under the old name, often at the old one's
       version: only identity tells the two apart *)
    Strip_db.exec_script db
      (Printf.sprintf
         "drop table scratch; create table scratch (k int, v float); insert \
          into scratch values (%d, %g), (%d, 0.5)"
         k x (k + 1));
    (db, "drop and recreate")
  | _ ->
    Strip_db.crash db;
    let db' = Strip_db.create ~now:(Strip_db.now db) ~durable () in
    ignore (Recovery.recover db' ~reinstall:(fun () -> install_comp_rule db'));
    (db', "crash and recover")

let test_incremental_image_differential () =
  for seed = 1 to 12 do
    Task.reset_ids ();
    let st = Random.State.make [| seed |] in
    let durable = Durable.create () in
    let db = ref (setup_incremental_db durable) in
    let nidx = ref 0 in
    checkpoint_matches_capture ~what:(Printf.sprintf "seed %d first image" seed)
      durable !db;
    for step = 1 to 30 do
      let db', label = random_step st durable !db ~nidx in
      db := db';
      checkpoint_matches_capture
        ~what:(Printf.sprintf "seed %d step %d (%s)" seed step label)
        durable !db
    done
  done

let test_incremental_image_after_bitrot () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db = setup_incremental_db durable in
  List.iteri
    (fun i frac ->
      checkpoint_matches_capture ~what:"before bit rot" durable db;
      Alcotest.(check bool) "a byte of the installed image flipped" true
        (Durable.flip_snapshot_byte durable ~frac);
      Alcotest.(check bool) "the damaged slot fails its CRC" false
        (Durable.slots_valid durable);
      (* every other round changes one table; the rest reuse segments *)
      if i mod 2 = 1 then
        ignore (Strip_db.exec db "update scratch set v = v + 1.0 where k = 1");
      checkpoint_matches_capture ~what:(Printf.sprintf "after bit rot at %g" frac)
        durable db;
      match Durable.verified_slot durable with
      | Some (image, _, _, skipped) ->
        Alcotest.(check int) "the next image verifies clean" 0 skipped;
        Alcotest.(check bool) "and is the installed one" true
          (Durable.snapshot durable = Some image)
      | None -> Alcotest.fail "no verified slot after a fresh checkpoint")
    [ 0.0; 0.1; 0.35; 0.5; 0.75; 0.99 ]

(* ------------------------------------------------------------------ *)
(* Crash + restart: exactly-once across the WAL and rebuilt queue *)

let test_crash_recovery_exactly_once () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db1 = setup_durable_db durable in
  Strip_db.checkpoint db1;
  Strip_db.submit_update db1 ~at:0.0 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 31.0 where symbol = 'S1'");
      ignore
        (Transaction.exec txn "update stocks set price = 39.0 where symbol = 'S2'"));
  Strip_db.submit_update db1 ~at:0.3 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 38.0 where symbol = 'S2'");
      ignore
        (Transaction.exec txn "update stocks set price = 51.0 where symbol = 'S3'"));
  (* both updates commit (and fsync); the merged unique batch is still
     queued when the crash hits *)
  Strip_db.run db1 ~until:0.5;
  Strip_db.crash db1;
  let db2 = Strip_db.create ~now:0.5 ~durable () in
  let rs = Recovery.recover db2 ~reinstall:(fun () -> install_comp_rule db2) in
  Alcotest.(check bool) "recovered from the checkpoint" true
    rs.Recovery.had_checkpoint;
  Alcotest.(check int) "both update commits redone" 2 rs.Recovery.redo_commits;
  Alcotest.(check int) "the queued batch rebuilt" 1 rs.Recovery.requeued;
  Alcotest.(check int) "with every merged row" 5 rs.Recovery.requeued_rows;
  Alcotest.(check bool) "clean log tail" true
    ((not rs.Recovery.torn_tail) && not rs.Recovery.corrupt_tail);
  Strip_db.run db2;
  (* exactly-once: each diff applied once, none lost, none doubled *)
  Alcotest.(check (list (pair string (float 1e-9))))
    "maintained view caught up after the crash"
    [ ("C1", 41.0); ("C2", 35.9) ]
    (List.map
       (fun row -> (Value.to_string row.(0), Value.to_float row.(1)))
       (Strip_db.query_rows db2
          "select comp, price from comp_prices order by comp"));
  Alcotest.(check int) "auditor agrees" 0
    (List.length (Auditor.audit db2).Auditor.divergences)

let test_recovered_base_equals_pre_crash () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db1 = setup_durable_db durable in
  Strip_db.checkpoint db1;
  Strip_db.submit_update db1 ~at:0.0 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 33.0 where symbol = 'S1'"));
  Strip_db.run db1;
  let before =
    Strip_db.query_rows db1 "select symbol, price from stocks order by symbol"
  in
  Strip_db.crash db1;
  let db2 = Strip_db.create ~durable () in
  ignore (Recovery.recover db2 ~reinstall:(fun () -> install_comp_rule db2));
  Alcotest.(check bool) "redo reproduces the committed base state" true
    (before
    = Strip_db.query_rows db2 "select symbol, price from stocks order by symbol")

(* ------------------------------------------------------------------ *)
(* Engine crash semantics: no zombie waiters (satellite regression) *)

let test_discard_all_drains_parked_waiters () =
  Task.reset_ids ();
  let cat = Catalog.create () in
  ignore (Sql_exec.exec_string cat ~env:[] "create table t (k int, v float)");
  ignore (Sql_exec.exec_string cat ~env:[] "insert into t values (3, 0.0)");
  let clock = Clock.create () in
  let locks = Lock.create () in
  let eng = Engine.create ~clock ~locks ~servers:2 () in
  let writer () =
    Task.create ~klass:Task.Update ~func_name:"w" ~release_time:0.0
      ~created_at:0.0 (fun _ ->
        let txn = Transaction.begin_ ~cat ~locks ~clock () in
        (try
           ignore (Transaction.exec txn "update t set v = v + 1.0 where k = 3");
           Transaction.commit txn
         with e ->
           if Transaction.status txn = Transaction.Active then
             Transaction.abort txn;
           raise e))
  in
  let w1 = writer () in
  let w2 = writer () in
  let schema = Schema.of_list [ ("x", Value.TInt) ] in
  let bound = Temp_table.create_materialized ~name:"b" ~schema in
  Temp_table.append_values bound [| Value.Int 1 |];
  let crasher =
    Task.create ~klass:Task.Background ~func_name:"crash" ~release_time:0.0
      ~created_at:0.0
      ~bound:[ ("b", bound) ]
      (fun _ -> raise (Fault.Crashed { at = "test" }))
  in
  Engine.submit eng w1;
  Engine.submit eng w2;
  Engine.submit eng crasher;
  (* w1 holds the row's lock as a zombie until its completion event; w2
     parks on it; the crash fires before any completion is processed *)
  (match Engine.run eng with
  | exception Fault.Crashed _ -> ()
  | () -> Alcotest.fail "crash should propagate");
  Alcotest.(check int) "a waiter was parked when the crash hit" 1
    (Engine.parked_count eng);
  Engine.discard_all eng;
  Alcotest.(check int) "no zombie waiters" 0 (Engine.parked_count eng);
  Alcotest.(check int) "ready queue empty" 0 (Engine.ready_length eng);
  Alcotest.(check int) "event queue empty" 0 (Engine.delayed_length eng);
  Alcotest.(check bool) "parked task left in a well-defined state" true
    (w2.Task.state = Task.Cancelled);
  Alcotest.(check bool) "bound tables retired with their tasks" true
    (Temp_table.retired bound)

(* ------------------------------------------------------------------ *)
(* Auditor: detect, repair, converge *)

let test_auditor_detects_and_repairs () =
  Task.reset_ids ();
  let db = Strip_db.create () in
  Strip_db.exec_script db figure4_script;
  Strip_db.declare_view db ~sql:comp_view_sql;
  Alcotest.(check bool) "fresh view audits clean" true
    (Auditor.clean (Auditor.audit db));
  (* silent corruption: damage the materialized view without touching base
     data, as a lost or doubled maintenance transaction would *)
  Strip_db.submit_update db ~at:0.0 ~label:"corrupt" (fun txn ->
      ignore
        (Transaction.exec txn
           "update comp_prices set price = 999.0 where comp = 'C1'"));
  Strip_db.run db;
  let r = Auditor.audit db in
  (match r.Auditor.divergences with
  | [ d ] ->
    Alcotest.(check string) "right view" "comp_prices" d.Auditor.view;
    Alcotest.(check string) "right key" "C1" (Value.to_string d.Auditor.key)
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 divergence, got %d" (List.length ds)));
  Alcotest.(check int) "one repair enqueued" 1 (Auditor.enqueue_repairs db r);
  Strip_db.run db;
  Alcotest.(check bool) "repair converged" true (Auditor.clean (Auditor.audit db));
  Alcotest.(check (list (pair string (float 1e-9))))
    "repaired values recomputed from base"
    [ ("C1", 40.0); ("C2", 37.0) ]
    (List.map
       (fun row -> (Value.to_string row.(0), Value.to_float row.(1)))
       (Strip_db.query_rows db "select comp, price from comp_prices order by comp"))

let test_auditor_view_filter () =
  let db = Strip_db.create () in
  Strip_db.exec_script db figure4_script;
  Strip_db.declare_view db ~sql:comp_view_sql;
  let r = Auditor.audit ~views:[ "comp_prices" ] db in
  Alcotest.(check (list string)) "only the selected view audited"
    [ "comp_prices" ] (List.map fst r.Auditor.audited);
  let none = Auditor.audit ~views:[ "nosuch" ] db in
  Alcotest.(check int) "unknown names select nothing" 0
    (List.length none.Auditor.audited)

(* ------------------------------------------------------------------ *)
(* End-to-end: experiment crash-restart loop, audit gate, determinism *)

let crashy_cfg () =
  let cfg =
    Experiment.default_config
      (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0
  in
  let cfg = Experiment.quick cfg 0.02 in
  {
    cfg with
    Experiment.recovery =
      Some
        {
          Experiment.checkpoint_every = Some 5.0;
          crash_at = Some (cfg.Experiment.feed.Strip_market.Feed.duration /. 2.0);
        };
  }

let test_experiment_crash_recovery () =
  Task.reset_ids ();
  let m = Experiment.run (crashy_cfg ()) in
  let r =
    match m.Experiment.recovery with
    | Some r -> r
    | None -> Alcotest.fail "recovery metrics missing"
  in
  Alcotest.(check int) "exactly the scheduled crash" 1 r.Experiment.n_crashes;
  Alcotest.(check bool) "log was replayed" true (r.Experiment.redo_commits > 0);
  Alcotest.(check bool) "queued batches rebuilt" true (r.Experiment.requeued > 0);
  Alcotest.(check bool) "recovery downtime charged" true
    (r.Experiment.total_recovery_s > 0.0);
  Alcotest.(check bool) "audit clean without repairs" true
    (r.Experiment.audit_clean
    && Report.count m.Experiment.registry "recovery_repairs_total" = 0);
  Alcotest.(check (option bool)) "view verified against recomputation"
    (Some true) m.Experiment.verified

let test_experiment_crash_determinism () =
  Task.reset_ids ();
  let a = Experiment.run (crashy_cfg ()) in
  Task.reset_ids ();
  let b = Experiment.run (crashy_cfg ()) in
  Alcotest.(check string) "same seed, same crash, byte-identical metrics"
    (Strip_obs.Json.to_string (Report.metrics_json a))
    (Strip_obs.Json.to_string (Report.metrics_json b))

let test_crash_free_run_has_no_recovery_surface () =
  Task.reset_ids ();
  let cfg =
    Experiment.quick
      (Experiment.default_config
         (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0)
      0.02
  in
  let m = Experiment.run cfg in
  Alcotest.(check bool) "no recovery block without a recovery config" true
    (m.Experiment.recovery = None);
  let json = Strip_obs.Json.to_string (Report.metrics_json m) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    nn = 0 || at 0
  in
  Alcotest.(check bool) "JSON carries no recovery member" false
    (contains json "\"recovery\"")

(* lock_wait_s folds every incarnation's histogram, so its count is
   n_lock_waits even when waits happen on both sides of a crash. *)
let test_lock_waits_span_incarnations () =
  Task.reset_ids ();
  let cfg =
    Experiment.quick
      (Experiment.default_config
         (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0)
      0.05
  in
  let cfg =
    {
      cfg with
      Experiment.servers = 4;
      recovery =
        Some
          {
            Experiment.checkpoint_every = Some 5.0;
            crash_at = Some 45.0;
          };
    }
  in
  let m = Experiment.run cfg in
  Alcotest.(check bool) "tasks waited on locks" true
    (m.Experiment.n_lock_waits > 0);
  let n =
    match m.Experiment.lock_wait_s with
    | Some s -> s.Strip_obs.Histogram.n
    | None -> 0
  in
  Alcotest.(check int) "histogram count = n_lock_waits" m.Experiment.n_lock_waits
    n

(* ------------------------------------------------------------------ *)
(* Temp_table.absorb into a fully-materialized destination (recovered
   TCBs carry no record pointers) *)

(* ------------------------------------------------------------------ *)
(* Causal tracing: a queued batch's trace context survives crash+restart *)

let test_trace_ctx_survives_recovery () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let tr1 = Strip_obs.Trace.create () in
  let db1 = Strip_db.create ~durable ~trace:tr1 () in
  Strip_db.exec_script db1 figure4_script;
  Strip_db.declare_view db1 ~sql:comp_view_sql;
  install_comp_rule db1;
  (* checkpoint first: the enqueue and its WAL trace note land after the
     checkpoint LSN, so recovery replays both *)
  Strip_db.checkpoint db1;
  Strip_db.submit_update db1 ~at:0.0 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 31.0 where symbol = 'S1'"));
  (* stop before the batch's 1 s release: it is still queued at the crash *)
  Strip_db.run db1 ~until:0.5;
  let uq_notes =
    List.filter_map
      (fun (_, r) ->
        match r with
        | Wal.Trace_note { subject = Wal.For_uq _; trace; span } ->
          Some (trace, span)
        | _ -> None)
      (Wal.read (Durable.wal durable)).Wal.records
  in
  let otrace, ospan =
    match uq_notes with
    | [ x ] -> x
    | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 For_uq trace note, got %d" (List.length l))
  in
  Strip_db.crash db1;
  let tr2 = Strip_obs.Trace.create () in
  let db2 = Strip_db.create ~now:0.5 ~durable ~trace:tr2 () in
  ignore (Recovery.recover db2 ~reinstall:(fun () -> install_comp_rule db2));
  Strip_db.run db2;
  (* the resubmitted batch's events on the restarted node stay inside the
     pre-crash trace, parent-linked to the original enqueue span *)
  let linked =
    List.exists
      (fun (e : Strip_obs.Trace.event) ->
        List.mem ("trace", Strip_obs.Trace.Int otrace) e.Strip_obs.Trace.args
        && List.mem ("parent", Strip_obs.Trace.Int ospan) e.Strip_obs.Trace.args)
      (Strip_obs.Trace.events tr2)
  in
  Alcotest.(check bool) "restart continues the pre-crash trace" true linked;
  Alcotest.(check int) "and the recovered view is correct" 0
    (List.length (Auditor.audit db2).Auditor.divergences)

let test_absorb_into_materialized () =
  let schema = Schema.of_list [ ("k", Value.TInt); ("v", Value.TFloat) ] in
  let dst = Temp_table.create_materialized ~name:"dst" ~schema in
  Temp_table.append_values dst [| Value.Int 1; Value.Float 1.0 |];
  (* a pointer-carrying source, as a live merge would produce *)
  let rec1 = Record.create [| Value.Int 2; Value.Float 2.0 |] in
  let src =
    Temp_table.create ~name:"src" ~schema ~nslots:1
      ~prov:[| Temp_table.From_record (0, 0); Temp_table.From_record (0, 1) |]
  in
  Temp_table.append src ~srcs:[| rec1 |] ~mats:[||];
  Temp_table.absorb dst src;
  Alcotest.(check int) "rows copied by value" 2 (Temp_table.cardinal dst);
  Alcotest.(check bool) "source emptied" true (Temp_table.cardinal src = 0);
  Alcotest.(check bool) "values materialized in the destination" true
    (Temp_table.to_rows dst
    = [
        [| Value.Int 1; Value.Float 1.0 |]; [| Value.Int 2; Value.Float 2.0 |];
      ])

(* ------------------------------------------------------------------ *)
(* Whole-run statistics: every incarnation of a primary records into its
   predecessor's stats, so the report, its distributions and the
   registry all cover the whole run, crashes and elections included. *)

let registry_sum (m : Experiment.metrics) ?klass name =
  List.fold_left
    (fun acc (row : Strip_obs.Metrics.row) ->
      let wanted =
        row.Strip_obs.Metrics.name = name
        &&
        match klass with
        | None -> true
        | Some k -> List.assoc_opt "class" row.Strip_obs.Metrics.labels = Some k
      in
      match row.Strip_obs.Metrics.datum with
      | Strip_obs.Metrics.Int n when wanted -> acc +. float_of_int n
      | Strip_obs.Metrics.Float x when wanted -> acc +. x
      | _ -> acc)
    0.0 m.Experiment.registry

(* Rule-action commits that wrote [table], one ["commit"] instant each
   in the trace. *)
let traced_commits tr ~table =
  Alcotest.(check int) "trace kept every event" 0 (Strip_obs.Trace.dropped tr);
  List.length
    (List.filter
       (fun (e : Strip_obs.Trace.event) ->
         e.Strip_obs.Trace.name = "commit"
         &&
         match List.assoc_opt "tables" e.Strip_obs.Trace.args with
         | Some (Strip_obs.Trace.Str ts) ->
           List.mem table (String.split_on_char ',' ts)
         | _ -> false)
       (Strip_obs.Trace.events tr))

let check_whole_run name (cfg : Experiment.config) =
  Task.reset_ids ();
  let tr = Strip_obs.Trace.create ~capacity:(1 lsl 20) () in
  let m = Experiment.run { cfg with Experiment.trace = Some tr } in
  let rc = Option.get m.Experiment.recovery in
  let primaries =
    match m.Experiment.shard with Some s -> s.Experiment.n_shards | None -> 1
  in
  let busy_s =
    m.Experiment.busy_update_s +. m.Experiment.busy_recompute_s
    +. (1e-6 *. registry_sum m ~klass:"background" "busy_us_total")
  in
  let check_float what expected actual =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s (%g vs %g)" name what expected actual)
      true
      (Float.abs (expected -. actual) <= 1e-9 *. Float.max 1.0 expected)
  in
  Alcotest.(check bool) (name ^ ": the run crashed or failed over") true
    (rc.Experiment.n_crashes > 0
    || match m.Experiment.repl with
       | Some r -> r.Experiment.n_failovers > 0
       | None -> false);
  check_float "utilization x duration = busy time of every class" busy_s
    (m.Experiment.utilization *. m.Experiment.duration_s
    *. float_of_int primaries);
  Alcotest.(check int)
    (name ^ ": registry recompute tasks = N_r")
    m.Experiment.n_recompute
    (int_of_float (registry_sum m ~klass:"recompute" "tasks_total"));
  Alcotest.(check int)
    (name ^ ": registry crashes = reported crashes")
    rc.Experiment.n_crashes
    (int_of_float (registry_sum m "crashes_total"));
  (* A crash or partition is a node fault, not an aborted transaction. *)
  Alcotest.(check int) (name ^ ": no transaction aborted") 0
    (Report.count m.Experiment.registry "aborts_total");
  Alcotest.(check int)
    (name ^ ": every abort retried or dead-lettered")
    m.Experiment.n_aborts
    (m.Experiment.n_retries + m.Experiment.n_dead_letters);
  (* A promoted replica's log continues its deposed primary's, so the
     log's end never exceeds what the primary appended over the run. *)
  Alcotest.(check bool)
    (name ^ ": appended bytes cover the log")
    true
    (rc.Experiment.wal_appended_bytes
    >= Report.count m.Experiment.registry "wal_durable_end_lsn");
  Alcotest.(check int)
    (name ^ ": staleness samples = rule-action commits")
    (traced_commits tr ~table:"comp_prices")
    (match List.assoc_opt "comp_prices" m.Experiment.staleness with
    | Some s -> s.Strip_obs.Histogram.n
    | None -> 0)

let symbol_cfg ~scale =
  Experiment.quick
    (Experiment.default_config
       (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0)
    scale

let crash_rate_fault =
  {
    Fault.default_config with
    Fault.rates = { Fault.no_faults with Fault.crash = 0.001 };
  }

let test_whole_run_crash_at () = check_whole_run "crash-at" (crashy_cfg ())

let test_whole_run_crash_rate () =
  let cfg = symbol_cfg ~scale:0.05 in
  check_whole_run "crash-rate"
    {
      cfg with
      Experiment.fault = Some crash_rate_fault;
      recovery = Some Experiment.default_recovery;
    }

let test_whole_run_failover () =
  let cfg = crashy_cfg () in
  check_whole_run "failover"
    {
      cfg with
      Experiment.repl =
        Some { Experiment.default_repl with Experiment.replicas = 2 };
    }

let test_whole_run_partition () =
  let cfg = symbol_cfg ~scale:0.02 in
  check_whole_run "partition"
    {
      cfg with
      Experiment.repl =
        Some { Experiment.default_repl with Experiment.replicas = 2 };
      recovery = Some Experiment.default_recovery;
      chaos =
        [
          Experiment.Partition_at { at = 9.0; heal_after_s = 1.5 };
          Experiment.Crash_at 20.0;
        ];
    }

let test_whole_run_sharded_crash () =
  let cfg =
    Experiment.quick
      (Experiment.default_config
         (Experiment.Comp_view Comp_rules.Unique_on_comp) ~delay:1.0)
      0.05
  in
  check_whole_run "sharded-crash"
    {
      cfg with
      Experiment.shard =
        Some
          {
            (Experiment.default_shard ~shards:3) with
            Experiment.shard_crash_at = Some (1, 45.0);
          };
    }

let suite =
  [
    ( "recovery/wal",
      [
        Alcotest.test_case "record round-trip" `Quick test_wal_roundtrip;
        Alcotest.test_case "tlog ops preserve execute_order" `Quick
          test_wal_ops_of_tlog_order;
        Alcotest.test_case "crash loses the unsynced tail" `Quick
          test_wal_lose_tail;
        Alcotest.test_case "torn tail dropped" `Quick test_wal_torn_tail;
        Alcotest.test_case "tail cut at frame boundary is clean" `Quick
          test_wal_tail_cut_at_frame_boundary;
        Alcotest.test_case "append_batch equivalence" `Quick
          test_wal_append_batch_equivalence;
        Alcotest.test_case "mid-log corruption stops the scan" `Quick
          test_wal_mid_log_corruption;
        Alcotest.test_case "truncation behind a checkpoint" `Quick
          test_wal_truncate;
        Alcotest.test_case "slice-by-8 crc32 matches bytewise" `Quick
          test_crc32;
        Alcotest.test_case "crc32_combine equals the CRC of the concatenation"
          `Quick test_crc32_combine;
        Alcotest.test_case "crc32 continuation equals the CRC of the concatenation"
          `Quick test_crc32_continue;
        Alcotest.test_case "a checking reader accepts what decoding accepts"
          `Quick test_check_reader;
        Alcotest.test_case "integer writers are little-endian" `Quick
          test_int_writers;
        Alcotest.test_case "fixed-width reads box no int64" `Quick
          test_fixed_width_reads_unboxed;
        Alcotest.test_case "one row write stays within its word budget" `Quick
          test_row_write_allocation;
        Alcotest.test_case "one rule check and its merges stay within their word budget"
          `Quick test_rule_check_allocation;
      ] );
    ( "recovery/checkpoint",
      [
        Alcotest.test_case "fuzzy checkpoint round-trip" `Quick
          test_checkpoint_roundtrip;
        Alcotest.test_case "incremental image equals a full capture" `Quick
          test_incremental_image_differential;
        Alcotest.test_case "bit rot never leaks into the next image" `Quick
          test_incremental_image_after_bitrot;
      ] );
    ( "recovery/restart",
      [
        Alcotest.test_case "exactly-once across a crash" `Quick
          test_crash_recovery_exactly_once;
        Alcotest.test_case "redo reproduces committed base state" `Quick
          test_recovered_base_equals_pre_crash;
        Alcotest.test_case "discard_all drains parked waiters" `Quick
          test_discard_all_drains_parked_waiters;
        Alcotest.test_case "absorb into a materialized TCB" `Quick
          test_absorb_into_materialized;
        Alcotest.test_case "trace context survives crash+restart" `Quick
          test_trace_ctx_survives_recovery;
      ] );
    ( "recovery/auditor",
      [
        Alcotest.test_case "detects and repairs a damaged view" `Quick
          test_auditor_detects_and_repairs;
        Alcotest.test_case "view filter" `Quick test_auditor_view_filter;
      ] );
    ( "recovery/experiment",
      [
        Alcotest.test_case "crash-restart loop recovers and audits clean"
          `Slow test_experiment_crash_recovery;
        Alcotest.test_case "crashy runs are deterministic" `Slow
          test_experiment_crash_determinism;
        Alcotest.test_case "crash-free runs expose no recovery surface" `Slow
          test_crash_free_run_has_no_recovery_surface;
        Alcotest.test_case "lock waits span every incarnation" `Slow
          test_lock_waits_span_incarnations;
      ] );
    ( "recovery/whole-run",
      [
        Alcotest.test_case "scheduled crash" `Slow test_whole_run_crash_at;
        Alcotest.test_case "crash rate" `Slow test_whole_run_crash_rate;
        Alcotest.test_case "failover" `Slow test_whole_run_failover;
        Alcotest.test_case "partition and crash" `Slow
          test_whole_run_partition;
        Alcotest.test_case "sharded crash" `Slow test_whole_run_sharded_crash;
      ] );
  ]
