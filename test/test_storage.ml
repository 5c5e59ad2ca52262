(* Storage-fault survival: at-rest corruption detection in every frame
   region, torn-tail vs. rot disambiguation, checkpoint-slot CRC
   fallback, the salvage ladder under a double fault (corruption found
   during crash recovery), the planted silent-corruption bug shrinking
   to a 1-minimal reproducer, and flag-off byte-identity. *)

open Strip_relational
open Strip_txn
open Strip_core
open Strip_pta
open Strip_chaos

(* ------------------------------------------------------------------ *)
(* WAL frame regions: a flip anywhere inside a mid-log frame must be
   reported by [Wal.verify], with a resync point that re-parses cleanly *)

let commit i = Wal.Commit { txid = i; time = 0.01 *. float_of_int i; ops = [] }

let filled_wal n =
  let w = Wal.create () in
  let lsns = List.map (fun i -> Wal.append w (commit i)) (List.init n Fun.id) in
  Wal.fsync w;
  (w, Array.of_list lsns)

let check_flip_detected w ~flip_at ~frame_start label =
  Wal.flip_byte w ~lsn:flip_at;
  (match Wal.verify w with
  | [ (l, r) ] ->
    Alcotest.(check int) (label ^ ": range starts at the frame") frame_start l;
    Alcotest.(check bool) (label ^ ": resync strictly later") true (r > l);
    Alcotest.(check bool)
      (label ^ ": resync inside the log") true
      (r <= Wal.durable_end w);
    (* the chain really does parse cleanly from the resync point *)
    let rd = Wal.read_from w ~lsn:r in
    Alcotest.(check (option int)) (label ^ ": clean past resync") None
      rd.Wal.corrupt_at
  | ranges ->
    Alcotest.fail
      (Printf.sprintf "%s: expected 1 corrupt range, got %d" label
         (List.length ranges)));
  (* flipping the same byte again restores the original *)
  Wal.flip_byte w ~lsn:flip_at;
  Alcotest.(check bool) (label ^ ": unflip restores a clean log") true
    (Wal.verify w = [])

let test_frame_region_flips () =
  let w, lsns = filled_wal 50 in
  Alcotest.(check bool) "clean log verifies empty" true (Wal.verify w = []);
  let l = lsns.(20) and next = lsns.(21) in
  (* frame layout: [u32 len][u32 crc][payload] *)
  check_flip_detected w ~flip_at:l ~frame_start:l "len header";
  check_flip_detected w ~flip_at:(l + 4) ~frame_start:l "crc field";
  check_flip_detected w ~flip_at:(l + 8) ~frame_start:l "payload first byte";
  check_flip_detected w ~flip_at:(next - 1) ~frame_start:l "payload last byte"

let test_torn_tail_not_flagged () =
  (* A flipped len header in the FINAL frame makes the parse run past
     end-of-log with no later resync — indistinguishable from a torn
     final append, which recovery truncates.  The scrubber must not
     flag it; [Wal.read] must report it as torn. *)
  let w, lsns = filled_wal 10 in
  let last = lsns.(9) in
  Wal.flip_byte w ~lsn:last;
  Alcotest.(check bool) "scrub does not flag the torn-looking tail" true
    (Wal.verify w = []);
  let rd = Wal.read w in
  Alcotest.(check (option int)) "read drops it as a torn tail" (Some last)
    rd.Wal.torn_at;
  Alcotest.(check (option int)) "not as corruption" None rd.Wal.corrupt_at;
  Alcotest.(check int) "every earlier record survives" 9
    (List.length rd.Wal.records);
  (* the same flip mid-log IS corruption: the chain resyncs before the
     end, so a genuine torn write cannot explain the bytes *)
  let w2, lsns2 = filled_wal 10 in
  Wal.flip_byte w2 ~lsn:lsns2.(4);
  (match Wal.verify w2 with
  | [ (l, _) ] ->
    Alcotest.(check int) "mid-log len flip is rot, not tear" lsns2.(4) l
  | _ -> Alcotest.fail "expected exactly one corrupt range")

let test_truncation_boundary_flip () =
  (* Rot in the first frame after a checkpoint truncation: the range
     must be reported relative to the (re-based) log, starting at the
     new base LSN. *)
  let w, lsns = filled_wal 30 in
  Wal.truncate_to w ~lsn:lsns.(15);
  Alcotest.(check int) "base moved" lsns.(15) (Wal.base_lsn w);
  Wal.flip_byte w ~lsn:(lsns.(15) + 8);
  (match Wal.verify w with
  | [ (l, r) ] ->
    Alcotest.(check int) "range starts at the new base" lsns.(15) l;
    Alcotest.(check int) "resync at the next frame" lsns.(16) r
  | _ -> Alcotest.fail "expected exactly one corrupt range");
  (* a flip below the base is out of range — the bytes left the system *)
  Alcotest.(check bool) "flip below the truncation floor rejected" true
    (match Wal.flip_byte w ~lsn:lsns.(3) with
    | exception Wal.Out_of_range _ -> true
    | () -> false)

let test_bound_rows_flip_and_splice () =
  (* Rot inside a queued unique transaction's bound-rows payload, then
     the replica rung of the salvage ladder: splicing the clean bytes
     back restores the log byte-for-byte. *)
  let w = Wal.create () in
  let enq =
    Wal.Uq_enqueue
      {
        func = "f";
        key = [ Value.Str "S1" ];
        release_time = 2.0;
        created_at = 1.0;
        bound =
          [
            ( "matches",
              [
                [| Value.Str "C1"; Value.Float 0.5 |];
                [| Value.Str "C2"; Value.Float 0.25 |];
              ] );
          ];
      }
  in
  ignore (Wal.append w (commit 0));
  let enq_lsn = Wal.append w enq in
  ignore (Wal.append w (commit 1));
  Wal.fsync w;
  let clean = Wal.durable_slice w ~from_lsn:0 in
  (* deep inside the bound-rows payload *)
  Wal.flip_byte w ~lsn:(enq_lsn + 24);
  let l, r =
    match Wal.verify w with
    | [ range ] -> range
    | _ -> Alcotest.fail "expected exactly one corrupt range"
  in
  Alcotest.(check int) "the enqueue frame is the corrupt one" enq_lsn l;
  let rd = Wal.read w in
  Alcotest.(check (option int)) "read stops at the rotten enqueue"
    (Some enq_lsn) rd.Wal.corrupt_at;
  (* replica splice: overwrite exactly the corrupt range with clean bytes *)
  Wal.splice w ~lsn:l ~bytes:(String.sub clean l (r - l));
  Alcotest.(check bool) "spliced log verifies clean" true (Wal.verify w = []);
  Alcotest.(check string) "byte-identical to the pre-rot log" clean
    (Wal.durable_slice w ~from_lsn:0);
  let rd' = Wal.read w in
  Alcotest.(check int) "all three records readable again" 3
    (List.length rd'.Wal.records);
  Alcotest.(check bool) "the bound rows round-trip" true
    (List.exists (fun (_, rec_) -> rec_ = enq) rd'.Wal.records)

(* ------------------------------------------------------------------ *)
(* Verdict-only scans against a decoding reference: the same verify and
   resync algorithm, but every probe decodes the rest of the log into
   records through the public [read_from] / [scan_bytes]. *)

let ref_next_valid w ~after =
  let dend = Wal.durable_end w in
  let rec go lsn =
    if lsn >= dend then dend
    else
      let rd = Wal.read_from w ~lsn in
      if rd.Wal.corrupt_at = None && rd.Wal.records <> [] then lsn
      else go (lsn + 1)
  in
  go (after + 1)

let ref_verify w =
  let dend = Wal.durable_end w in
  let rec go from acc =
    if from >= dend then List.rev acc
    else
      let rd = Wal.read_from w ~lsn:from in
      match (rd.Wal.corrupt_at, rd.Wal.torn_at) with
      | Some l, _ ->
        let r = ref_next_valid w ~after:l in
        go r ((l, r) :: acc)
      | None, Some l ->
        let r = ref_next_valid w ~after:l in
        if r >= dend then List.rev acc else go r ((l, r) :: acc)
      | None, None -> List.rev acc
  in
  go (Wal.base_lsn w) []

let ref_check_bytes ~base bytes =
  let rd = Wal.scan_bytes ~base bytes in
  match (rd.Wal.corrupt_at, rd.Wal.torn_at) with
  | Some l, _ -> Wal.Corrupt_at l
  | None, Some l -> Wal.Torn_at l
  | None, None -> Wal.Clean

(* Records of every kind, with every value tag. *)
let random_record st =
  let int () = Random.State.int st 1000 in
  let float () = Random.State.float st 100.0 in
  let str () = String.init (Random.State.int st 6) (fun _ -> 'a') in
  let value () =
    match Random.State.int st 5 with
    | 0 -> Value.Null
    | 1 -> Value.Bool (Random.State.bool st)
    | 2 -> Value.Int (int ())
    | 3 -> Value.Float (float ())
    | _ -> Value.Str (str ())
  in
  let list n f = List.init (Random.State.int st n) (fun _ -> f ()) in
  let row () = Array.init (Random.State.int st 4) (fun _ -> value ()) in
  let key () = list 3 value in
  let bound () = list 3 (fun () -> (str (), list 3 row)) in
  let op () =
    match Random.State.int st 3 with
    | 0 -> Wal.Insert { table = str (); order = int (); values = row () }
    | 1 -> Wal.Delete { table = str (); order = int (); values = row () }
    | _ ->
      Wal.Update
        { table = str (); order = int (); old_values = row (); new_values = row () }
  in
  match Random.State.int st 10 with
  | 0 -> Wal.Commit { txid = int (); time = float (); ops = list 4 op }
  | 1 ->
    Wal.Uq_enqueue
      {
        func = str ();
        key = key ();
        release_time = float ();
        created_at = float ();
        bound = bound ();
      }
  | 2 -> Wal.Uq_merge { func = str (); key = key (); bound = bound () }
  | 3 -> Wal.Uq_release { func = str (); key = key () }
  | 4 -> Wal.Checkpoint_mark { time = float (); lsn = int () }
  | 5 ->
    let subject =
      if Random.State.bool st then Wal.For_txn (int ())
      else Wal.For_uq { func = str (); key = key () }
    in
    Wal.Trace_note { subject; trace = int (); span = int () }
  | 6 ->
    Wal.Shard_out
      { seq = int (); dst = int (); key = key (); delta = float (); created_at = float () }
  | 7 ->
    Wal.Shard_in
      { src = int (); seq = int (); key = key (); delta = float (); created_at = float () }
  | 8 -> Wal.Shard_release { key = key () }
  | _ ->
    Wal.Shard_state
      {
        out_seqs = list 3 (fun () -> (int (), int ()));
        watermarks = list 3 (fun () -> (int (), int (), list 3 int));
        pending = list 3 (fun () -> (key (), float (), float ()));
        unacked = list 3 (fun () -> (int (), int (), key (), float (), float ()));
      }

(* A frame whose CRC is right for a payload the grammar may reject:
   the rot a checksum cannot see. *)
let reframe payload =
  let b = Buffer.create (String.length payload + 8) in
  Codec.put_u32 b (String.length payload);
  Codec.put_u32 b (Codec.crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

let mangle_payload st payload =
  let n = String.length payload in
  match Random.State.int st 3 with
  | 0 -> String.sub payload 0 (Random.State.int st (max 1 n))
  | 1 -> payload ^ String.make (1 + Random.State.int st 3) '\000'
  | _ ->
    let k = Random.State.int st (max 1 n) in
    String.mapi
      (fun j c -> if j = k then Char.chr (Random.State.int st 256) else c)
      payload

(* A random log: fsynced batches of random records, some acked by a
   lying fsync (a zero gap), some replaced by a re-CRC'd frame the
   grammar rejects, then byte flips, length-header flips and a torn
   tail. *)
let random_log st =
  let w = Wal.create ~base_lsn:(Random.State.int st 100) () in
  let frames = ref [] in
  for _ = 1 to 2 + Random.State.int st 12 do
    if Random.State.int st 6 = 0 then
      Wal.arm_fsync_lie w ~notify:(fun ~lsn:_ ~len:_ -> ());
    for _ = 0 to Random.State.int st 3 do
      frames := Wal.append w (random_record st) :: !frames
    done;
    Wal.fsync w
  done;
  let frames = Array.of_list (List.rev !frames) in
  let nframes = Array.length frames in
  let base = Wal.base_lsn w in
  let data = ref (Wal.durable_contents w) in
  let frame_span i =
    let start = frames.(i) - base in
    let stop =
      if i + 1 < nframes then frames.(i + 1) - base else String.length !data
    in
    (start, stop)
  in
  if Random.State.int st 3 = 0 then begin
    (* a grammar-invalid payload with a valid CRC, in place of one frame *)
    let i = Random.State.int st nframes in
    let start, stop = frame_span i in
    let payload = String.sub !data (start + 8) (stop - start - 8) in
    data :=
      String.sub !data 0 start
      ^ reframe (mangle_payload st payload)
      ^ String.sub !data stop (String.length !data - stop)
  end;
  Wal.set_durable_for_test w !data;
  let n = String.length !data in
  for _ = 1 to Random.State.int st 3 do
    match Random.State.int st 3 with
    | 0 -> Wal.flip_byte w ~lsn:(base + Random.State.int st n)
    | _ ->
      (* a length header: its low byte, or its high byte (a length that
         runs past the end of the log) *)
      let start = frames.(Random.State.int st nframes) in
      if start - base < n then
        Wal.flip_byte w ~lsn:(start + if Random.State.bool st then 0 else 3)
  done;
  if Random.State.int st 3 = 0 then begin
    let d = Wal.durable_contents w in
    Wal.set_durable_for_test w
      (String.sub d 0 (String.length d - 1 - Random.State.int st (min 20 (String.length d))))
  end;
  w

let verdict_str = function
  | Wal.Clean -> "clean"
  | Wal.Torn_at l -> Printf.sprintf "torn@%d" l
  | Wal.Corrupt_at l -> Printf.sprintf "corrupt@%d" l

let test_verdict_scans_match_decoding () =
  let ranges = Alcotest.(list (pair int int)) in
  let verdict = Alcotest.testable (Fmt.of_to_string verdict_str) ( = ) in
  let st = Random.State.make [| 2024 |] in
  let dirty = ref 0 in
  for i = 1 to 300 do
    let w = random_log st in
    let what = Printf.sprintf "log #%d" i in
    let base = Wal.base_lsn w and dend = Wal.durable_end w in
    let want = ref_verify w in
    if want <> [] then incr dirty;
    Alcotest.check ranges (what ^ ": verify") want (Wal.verify w);
    (* resync probes from every corrupt start, and from random points *)
    let afters =
      List.map fst want
      @ List.init 6 (fun _ -> base - 1 + Random.State.int st (dend - base + 1))
    in
    List.iter
      (fun after ->
        Alcotest.(check int)
          (Printf.sprintf "%s: next_valid_lsn after %d" what after)
          (ref_next_valid w ~after)
          (Wal.next_valid_lsn w ~after))
      afters;
    (* shipped segments and salvage candidates: any sub-range *)
    let d = Wal.durable_contents w in
    for _ = 1 to 8 do
      let off = Random.State.int st (String.length d + 1) in
      let len = Random.State.int st (String.length d - off + 1) in
      let bytes = String.sub d off len in
      Alcotest.check verdict
        (Printf.sprintf "%s: check_bytes [%d, +%d)" what off len)
        (ref_check_bytes ~base:(base + off) bytes)
        (Wal.check_bytes ~base:(base + off) bytes)
    done
  done;
  (* the generator really does produce damage the scans must find *)
  Alcotest.(check bool) "most logs carry damage" true (!dirty > 150)

(* ------------------------------------------------------------------ *)
(* Checkpoint slots: per-slot CRCs and fallback past a rotted image *)

let test_slot_crc_fallback () =
  let d = Durable.create ~retain:2 () in
  Durable.arm_media d;
  Durable.install_checkpoint d ~encoded:"older-image-aaaa" ~lsn:0 ~time:1.0;
  Durable.install_checkpoint d ~encoded:"newer-image-bbbb" ~lsn:0 ~time:2.0;
  Alcotest.(check bool) "both slots verify before the rot" true
    (Durable.slots_valid d);
  (match Durable.verified_slot d with
  | Some (img, _, time, skipped) ->
    Alcotest.(check string) "newest slot wins" "newer-image-bbbb" img;
    Alcotest.(check (float 1e-9)) "with its install time" 2.0 time;
    Alcotest.(check int) "nothing skipped" 0 skipped
  | None -> Alcotest.fail "expected a verified slot");
  Alcotest.(check bool) "flip lands" true (Durable.flip_snapshot_byte d ~frac:0.5);
  Alcotest.(check bool) "slot set no longer valid" false (Durable.slots_valid d);
  (* regression: recovery falls back to the older slot instead of
     restoring from the rotted image *)
  (match Durable.verified_slot d with
  | Some (img, _, time, skipped) ->
    Alcotest.(check string) "older slot served" "older-image-aaaa" img;
    Alcotest.(check (float 1e-9)) "the older install time" 1.0 time;
    Alcotest.(check int) "one CRC-failing slot passed over" 1 skipped
  | None -> Alcotest.fail "expected fallback to the older slot");
  let c = Durable.media_counts d in
  Alcotest.(check int) "the flip was ledgered" 1 c.Durable.injected_bitrot_cp;
  Alcotest.(check int) "still outstanding before the scrub" 1
    c.Durable.outstanding;
  (* scrubbing drops the bad slot and marks the fault detected *)
  Alcotest.(check int) "scrub drops exactly the bad slot" 1
    (Durable.scrub_slots d);
  Alcotest.(check bool) "the survivor set verifies" true (Durable.slots_valid d);
  let c' = Durable.media_counts d in
  Alcotest.(check int) "fault detected, no longer silent" 0
    c'.Durable.outstanding;
  Alcotest.(check int) "exactly one detection" 1 c'.Durable.detected

(* Segmented slots share the parts of unchanged tables with the
   checkpoint cache and with each other; rot must stay in the one slot
   it was injected into. *)
let shared_segments_script =
  "create table big (k int, v float); create table small (k int, v \
   float); insert into small values (1, 1.0), (2, 2.0); insert into big \
   values "
  ^ String.concat ", "
      (List.init 300 (fun i -> Printf.sprintf "(%d, %d.5)" i i))

let checkpoint_is_capture db d ~what =
  Test_recovery.checkpoint_matches_capture ~what d db;
  Option.get (Durable.snapshot d)

(* [retain] images that all share [big]'s segment; the flip offsets land
   in it.  A verifier that reused one slot's verdict on a part for
   another slot's copy at the same position would fail an older slot
   with the newest or pass the newest with an older one. *)
let slot_rot_stays_private ~retain =
  List.iter
    (fun frac ->
      let what = Printf.sprintf "retain %d, flip at %g" retain frac in
      let d = Durable.create ~retain () in
      Durable.arm_media d;
      let db = Strip_db.create ~durable:d () in
      Strip_db.exec_script db shared_segments_script;
      (* only [small] changes between images *)
      let images =
        List.init retain (fun i ->
            if i > 0 then
              ignore
                (Strip_db.exec db
                   (Printf.sprintf "update small set v = %d.0 where k = 1" (i + 8)));
            checkpoint_is_capture db d ~what:(Printf.sprintf "%s, image %d" what i))
      in
      let older = List.nth images (retain - 2) and newer = List.nth images (retain - 1) in
      Alcotest.(check bool) (what ^ ": the images differ") true (older <> newer);
      Alcotest.(check bool) (what ^ ": flip lands") true
        (Durable.flip_snapshot_byte d ~frac);
      Alcotest.(check bool) (what ^ ": the newest slot fails") false
        (Durable.slots_valid d);
      (match Durable.verified_slot d with
      | Some (img, _, _, skipped) ->
        Alcotest.(check int) (what ^ ": one slot passed over") 1 skipped;
        Alcotest.(check bool) (what ^ ": the next older slot is served intact")
          true (img = older)
      | None -> Alcotest.fail (what ^ ": the older slot no longer verifies"));
      Alcotest.(check int) (what ^ ": scrub drops only the newest slot") 1
        (Durable.scrub_slots d);
      Alcotest.(check bool) (what ^ ": the older slots still verify") true
        (Durable.slots_valid d);
      (* the cache kept clean segments: the next image is exact *)
      ignore (checkpoint_is_capture db d ~what:(what ^ ", after the rot"));
      Alcotest.(check bool) (what ^ ": every slot verifies again") true
        (Durable.slots_valid d))
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let test_slot_rot_stays_private () = slot_rot_stays_private ~retain:2
let test_slot_rot_three_slots () = slot_rot_stays_private ~retain:3

(* The same image installed as parts and as one encoded string must look
   the same to every verifier, before and after rot in either. *)
let test_parts_match_encoded () =
  for seed = 1 to 40 do
    let st = Random.State.make [| seed |] in
    let as_parts = Durable.create ~retain:2 ()
    and as_string = Durable.create ~retain:2 () in
    (* a pool of parts reused across images, as the checkpoint cache
       reuses unchanged segments *)
    let random_part n =
      Durable.part (Test_recovery.random_string st (Random.State.int st n))
    in
    let pool = Array.init 4 (fun _ -> random_part 64) in
    let agree what =
      let what = Printf.sprintf "seed %d, %s" seed what in
      Alcotest.(check bool) (what ^ ": slots_valid") (Durable.slots_valid as_string)
        (Durable.slots_valid as_parts);
      Alcotest.(check bool) (what ^ ": verified_slot") true
        (Durable.verified_slot as_string = Durable.verified_slot as_parts);
      Alcotest.(check bool) (what ^ ": snapshot") true
        (Durable.snapshot as_string = Durable.snapshot as_parts);
      Alcotest.(check int) (what ^ ": last_checkpoint_bytes")
        (Durable.last_checkpoint_bytes as_string)
        (Durable.last_checkpoint_bytes as_parts)
    in
    for step = 1 to 12 do
      (match Random.State.int st 4 with
      | 0 | 1 ->
        let parts =
          List.init (Random.State.int st 5) (fun _ ->
              if Random.State.bool st then pool.(Random.State.int st 4)
              else random_part 16)
        in
        let time = float_of_int step in
        Durable.install_parts as_parts ~parts ~lsn:0 ~time;
        Durable.install_checkpoint as_string
          ~encoded:(String.concat "" (List.map (fun p -> p.Durable.bytes) parts))
          ~lsn:0 ~time;
        Alcotest.(check int) "the combined CRC is the image's"
          (Durable.snapshot_crc as_string) (Durable.snapshot_crc as_parts)
      | 2 ->
        let frac = Random.State.float st 1.0 in
        Alcotest.(check bool) "the flip lands in both or neither"
          (Durable.flip_snapshot_byte as_string ~frac)
          (Durable.flip_snapshot_byte as_parts ~frac)
      | _ ->
        Alcotest.(check int) "scrub_slots agrees" (Durable.scrub_slots as_string)
          (Durable.scrub_slots as_parts));
      agree (Printf.sprintf "step %d" step)
    done;
    (* the pool's parts were never rotted in place *)
    Array.iter
      (fun p ->
        Alcotest.(check int) "a shared part keeps its bytes" p.Durable.crc
          (Codec.crc32 p.Durable.bytes))
      pool
  done

(* ------------------------------------------------------------------ *)
(* Paced scrubbing: a cycle of budgeted steps must report exactly what
   one whole-log verify and one full slot pass report. *)

(* Run [d]'s cycle to its close in steps of [budget] bytes; the corrupt
   WAL ranges and the install times of the dropped slots.  Every step
   keeps to its budget, but for a WAL frame longer than it and for a
   corrupt frame's resync. *)
let paced_cycle ~what d ~budget =
  let c = Durable.cursor () in
  let rec go ranges bad steps =
    let st = Durable.scrub_step d c ~budget in
    if st.Durable.wal_ranges = [] && st.Durable.wal_bytes <= budget then
      Alcotest.(check bool)
        (Printf.sprintf "%s: step %d keeps to the budget" what steps)
        true
        (st.Durable.wal_bytes + st.Durable.slot_bytes <= budget);
    let ranges = ranges @ st.Durable.wal_ranges
    and bad = bad @ List.map Durable.slot_time st.Durable.bad_slots in
    if st.Durable.closed then (ranges, bad, steps + 1)
    else go ranges bad (steps + 1)
  in
  go [] [] 0

(* Flip one byte of a string we own the bytes of: rot in place, in a
   part every slot containing it shares. *)
let rot_in_place st b =
  let k = Random.State.int st (Bytes.length b) in
  Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 0xff))

let test_paced_matches_reference () =
  let ranges = Alcotest.(list (pair int int)) in
  let st = Random.State.make [| 1997 |] in
  let dirty_wal = ref 0 and dirty_slots = ref 0 and multi_step = ref 0 in
  for i = 1 to 200 do
    let what = Printf.sprintf "store #%d" i in
    let w = random_log st in
    let retain = 1 + Random.State.int st 3 in
    let d = Durable.create ~wal:w ~retain () in
    (* a pool of shared parts; some are rotted in place later *)
    let pool =
      Array.init 3 (fun _ ->
          Bytes.of_string
            (Test_recovery.random_string st (1 + Random.State.int st 200)))
    in
    let pool_parts = Array.map (fun b -> Durable.part (Bytes.unsafe_to_string b)) pool in
    (* the model: each install's time and parts, newest first *)
    let slots = ref [] and flipped = ref [] in
    for k = 1 to 1 + Random.State.int st 5 do
      let time = float_of_int k in
      let parts =
        List.init (Random.State.int st 5) (fun _ ->
            if Random.State.bool st then pool_parts.(Random.State.int st 3)
            else
              Durable.part
                (Test_recovery.random_string st (Random.State.int st 150)))
      in
      Durable.install_parts d ~parts ~lsn:0 ~time;
      slots := (time, parts) :: !slots;
      (* rot a private copy in the newest slot, at most once per slot *)
      if Random.State.int st 3 = 0 && Durable.flip_snapshot_byte d
           ~frac:(Random.State.float st 1.0)
      then flipped := time :: !flipped
    done;
    let rotted = Array.map (fun _ -> Random.State.int st 4 = 0) pool in
    Array.iteri (fun j r -> if r then rot_in_place st pool.(j)) rotted;
    let retained = List.filteri (fun j _ -> j < retain) !slots in
    let want_bad =
      List.filter_map
        (fun (time, parts) ->
          let shared_rot =
            List.exists
              (fun p ->
                let rec find j =
                  j < 3 && ((pool_parts.(j) == p && rotted.(j)) || find (j + 1))
                in
                find 0)
              parts
          in
          if shared_rot || List.mem time !flipped then Some time else None)
        retained
    in
    let want_ranges = ref_verify w in
    if want_ranges <> [] then incr dirty_wal;
    if want_bad <> [] then incr dirty_slots;
    let budget = 1 + Random.State.int st 300 in
    let got_ranges, got_bad, steps = paced_cycle ~what d ~budget in
    if steps > 2 then incr multi_step;
    Alcotest.check ranges (what ^ ": corrupt WAL ranges") want_ranges got_ranges;
    Alcotest.(check (list (float 0.0))) (what ^ ": bad slots, newest first")
      want_bad got_bad;
    Alcotest.(check bool) (what ^ ": the survivors verify") true
      (Durable.slots_valid d)
  done;
  (* the generator exercises what the cycle must find, across steps *)
  Alcotest.(check bool) "many logs carry damage" true (!dirty_wal > 100);
  Alcotest.(check bool) "many slot sets carry rot" true (!dirty_slots > 50);
  Alcotest.(check bool) "most cycles span several steps" true
    (!multi_step > 150)

(* The WAL cursor survives truncation, a tail drop and a splice between
   steps: each later cycle reports exactly the rot still retained. *)
let test_cursor_survives_log_changes () =
  let ranges = Alcotest.(list (pair int int)) in
  let w, lsns = filled_wal 80 in
  let d = Durable.create ~wal:w () in
  let c = Durable.cursor () in
  let step () = Durable.scrub_step d c ~budget:200 in
  let rec finish acc =
    let st = step () in
    let acc = acc @ st.Durable.wal_ranges in
    if st.Durable.closed then acc else finish acc
  in
  ignore (step ());
  ignore (step ());
  (* truncation past the cursor: it resumes at the new base *)
  Wal.truncate_to w ~lsn:lsns.(40);
  Wal.flip_byte w ~lsn:(lsns.(60) + 9);
  Alcotest.check ranges "rot past the truncation is found"
    [ (lsns.(60), lsns.(61)) ] (finish []);
  (* a tail dropped behind the cursor ends the WAL side at the new end *)
  ignore (step ());
  Wal.flip_byte w ~lsn:(lsns.(75) + 9);
  let dropped = Wal.drop_from w ~lsn:lsns.(70) in
  Alcotest.(check bool) "the rotten tail left" true (dropped > 0);
  Alcotest.check ranges "only the retained rot is reported"
    [ (lsns.(60), lsns.(61)) ] (finish []);
  (* splice the clean frame back: the next cycle is clean *)
  let clean, _ = filled_wal 80 in
  Wal.splice w ~lsn:lsns.(60)
    ~bytes:(String.sub (Wal.durable_contents clean) lsns.(60)
              (lsns.(61) - lsns.(60)));
  Alcotest.check ranges "the spliced log verifies clean" [] (finish [])

(* Two rotted slots, and the budget lets only the newest be read before
   the older one is rotated out: the ledger detects exactly the slot it
   read and expunges the one that left unread. *)
let test_two_rotted_slots_one_read () =
  let d = Durable.create ~retain:2 () in
  Durable.arm_media d;
  let image c = String.make 100 c in
  Durable.install_checkpoint d ~encoded:(image 'a') ~lsn:0 ~time:1.0;
  Alcotest.(check bool) "the older slot rots" true
    (Durable.flip_snapshot_byte d ~frac:0.5);
  Durable.install_checkpoint d ~encoded:(image 'b') ~lsn:0 ~time:2.0;
  Alcotest.(check bool) "the newer slot rots" true
    (Durable.flip_snapshot_byte d ~frac:0.5);
  let c = Durable.cursor () in
  let st = Durable.scrub_step d c ~budget:100 in
  Alcotest.(check (list (float 0.0))) "only the newest slot was read"
    [ 2.0 ] (List.map Durable.slot_time st.Durable.bad_slots);
  Alcotest.(check int) "it read just that image" 100 st.Durable.slot_bytes;
  Alcotest.(check bool) "the cycle is still open" false st.Durable.closed;
  let counts = Durable.media_counts d in
  Alcotest.(check int) "one fault detected" 1 counts.Durable.detected;
  Alcotest.(check int) "the unread one still outstanding" 1
    counts.Durable.outstanding;
  List.iter (Durable.note_cp_repaired d) st.Durable.bad_slots;
  (* two fresh images rotate the unread slot out *)
  Durable.install_checkpoint d ~encoded:(image 'c') ~lsn:0 ~time:3.0;
  Durable.install_checkpoint d ~encoded:(image 'd') ~lsn:0 ~time:4.0;
  Durable.note_scrub_pass d ~budget:100;
  let counts = Durable.media_counts d in
  Alcotest.(check int) "the read slot's fault repaired" 1 counts.Durable.repaired;
  Alcotest.(check int) "the unread slot's fault expunged" 1
    counts.Durable.expunged;
  Alcotest.(check int) "nothing outstanding" 0 counts.Durable.outstanding;
  Alcotest.(check int) "nothing late" 0 counts.Durable.late

(* A settled checkpoint fault lets go of its slot: once the rotted slot
   has rotated out and the pass expunged its fault, nothing keeps the
   slot's parts alive. *)
let test_settled_fault_frees_slot () =
  let d = Durable.create ~retain:1 () in
  Durable.arm_media d;
  Durable.install_checkpoint d ~encoded:(String.make 4096 'a') ~lsn:0 ~time:1.0;
  Alcotest.(check bool) "the slot rots" true
    (Durable.flip_snapshot_byte d ~frac:0.5);
  (* a one-part slot's image is that part: the rotted private copy *)
  let weak = Weak.create 1 in
  (Sys.opaque_identity (fun () -> Weak.set weak 0 (Durable.snapshot d))) ();
  Alcotest.(check bool) "the rotted part is live" true (Weak.check weak 0);
  Durable.install_checkpoint d ~encoded:(String.make 100 'b') ~lsn:0 ~time:2.0;
  Durable.note_scrub_pass d ~budget:100;
  Gc.full_major ();
  Alcotest.(check bool) "the rotted part was collected" false
    (Weak.check weak 0);
  (* the store, and so its ledger, is still live here *)
  Alcotest.(check int) "the fault is expunged" 1
    (Durable.media_counts d).Durable.expunged

(* Rot injected at any point of the cycle is read within
   ceil (retained / budget) + 1 passes — also when a later checkpoint has
   made the rotted slot an older one. *)
let test_detection_bound () =
  let budget = 300 in
  List.iter
    (fun (phase, target) ->
      let what = Printf.sprintf "phase %d, %s" phase target in
      let w, _ = filled_wal 40 in
      let d = Durable.create ~wal:w ~retain:3 () in
      Durable.arm_media d;
      let shared = Durable.part (String.make 700 's') in
      let install time =
        Durable.install_parts d
          ~parts:[ Durable.part (Printf.sprintf "head-%g" time); shared ]
          ~lsn:0 ~time
      in
      install 1.0;
      install 2.0;
      let c = Durable.cursor () in
      let pass () =
        let st = Durable.scrub_step d c ~budget in
        List.iter (Durable.note_cp_repaired d) st.Durable.bad_slots;
        List.iter
          (fun (l, r) -> Durable.note_wal_repaired d ~lsn:l ~len:(r - l))
          st.Durable.wal_ranges;
        Durable.note_scrub_pass d ~budget
      in
      for _ = 1 to phase do
        pass ()
      done;
      (match target with
      | "wal" ->
        let lsn = Wal.base_lsn w + (Wal.durable_bytes w / 2) in
        Wal.flip_byte w ~lsn;
        Durable.note_injected d ~kind:Durable.Bitrot_wal ~lsn ~len:1
      | _ ->
        ignore (Durable.flip_snapshot_byte d ~frac:0.9);
        (* a newer image makes the rotted slot an older one *)
        install 3.0);
      let bound =
        ((Durable.retained_bytes d + budget - 1) / budget) + 1
      in
      let rec count n =
        if (Durable.media_counts d).Durable.outstanding = 0 then n
        else if n > 3 * bound then n
        else begin
          pass ();
          count (n + 1)
        end
      in
      let n = count 0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: read within %d passes (took %d)" what bound n)
        true (n <= bound);
      Alcotest.(check int) (what ^ ": not late") 0
        (Durable.media_counts d).Durable.late)
    (List.concat_map
       (fun phase -> [ (phase, "wal"); (phase, "slot") ])
       (List.init 8 Fun.id))

(* ------------------------------------------------------------------ *)
(* Double fault: corruption discovered during crash recovery.  Rung 1
   (replica bytes available) splices and loses nothing; rung 3 (no
   replica) quarantines the tail and survives with the checkpoint. *)

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

(* Run the figure-4 workload to a crash with one fsynced commit rotted;
   returns the durable store, the pre-rot clean log copy (the replica's
   view of the bytes) and the LSN whose frame was flipped. *)
let crashed_with_rot () =
  Task.reset_ids ();
  let durable = Durable.create () in
  let db1 = Strip_db.create ~durable () in
  Strip_db.exec_script db1 figure4_script;
  Strip_db.declare_view db1 ~sql:comp_view_sql;
  install_comp_rule db1;
  Strip_db.checkpoint db1;
  Strip_db.submit_update db1 ~at:0.0 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 31.0 where symbol = 'S1'"));
  Strip_db.submit_update db1 ~at:0.3 (fun txn ->
      ignore
        (Transaction.exec txn "update stocks set price = 38.0 where symbol = 'S2'"));
  Strip_db.run db1 ~until:0.5;
  let w = Durable.wal durable in
  let base = Wal.base_lsn w in
  let clean = Wal.durable_slice w ~from_lsn:base in
  Strip_db.crash db1;
  (* rot the first redo frame after the checkpoint — mid-log, because a
     later committed frame follows it *)
  Durable.arm_media durable;
  Wal.flip_byte w ~lsn:(base + 8);
  Durable.note_injected durable ~kind:Durable.Bitrot_wal ~lsn:(base + 8) ~len:1;
  (durable, clean, base)

let test_recovery_salvage_from_replica () =
  let durable, clean, base = crashed_with_rot () in
  let salvage ~from_lsn ~len =
    Some (String.sub clean (from_lsn - base) len)
  in
  let db2 = Strip_db.create ~now:0.5 ~durable () in
  let rs =
    Recovery.recover ~salvage db2 ~reinstall:(fun () -> install_comp_rule db2)
  in
  Alcotest.(check bool) "corruption was seen" true rs.Recovery.corrupt_tail;
  Alcotest.(check int) "one range replica-salvaged" 1
    rs.Recovery.salvaged_ranges;
  Alcotest.(check bool) "clean bytes fetched" true (rs.Recovery.salvaged_bytes > 0);
  Alcotest.(check int) "nothing quarantined" 0 rs.Recovery.quarantined_bytes;
  Alcotest.(check int) "both commits redone despite the rot" 2
    rs.Recovery.redo_commits;
  Alcotest.(check int) "the queued unique batch survived" 1
    rs.Recovery.requeued;
  (* the salvage healed the ledger: no fault left outstanding *)
  Alcotest.(check int) "fault repaired in the ledger" 0
    (Durable.outstanding durable);
  Strip_db.run db2;
  Alcotest.(check (list (pair string (float 1e-9))))
    "maintained view caught up losslessly"
    [ ("C1", 40.5); ("C2", 35.9) ]
    (List.map
       (fun row -> (Value.to_string row.(0), Value.to_float row.(1)))
       (Strip_db.query_rows db2
          "select comp, price from comp_prices order by comp"));
  Alcotest.(check int) "auditor agrees" 0
    (List.length (Auditor.audit db2).Auditor.divergences)

let test_recovery_quarantine_without_replica () =
  let durable, _clean, _base = crashed_with_rot () in
  let db2 = Strip_db.create ~now:0.5 ~durable () in
  let rs = Recovery.recover db2 ~reinstall:(fun () -> install_comp_rule db2) in
  Alcotest.(check bool) "corruption was seen" true rs.Recovery.corrupt_tail;
  Alcotest.(check int) "no replica to salvage from" 0 rs.Recovery.salvaged_ranges;
  Alcotest.(check bool) "the tail was quarantined" true
    (rs.Recovery.quarantined_bytes > 0);
  Alcotest.(check int) "no commit could be redone" 0 rs.Recovery.redo_commits;
  Alcotest.(check int) "quarantine recorded in the ledger" 0
    (Durable.outstanding durable);
  (* the checkpoint base state survived; the audit's repair pass
     restores whatever maintenance the quarantined records carried *)
  Alcotest.(check (list (pair string (float 1e-9))))
    "checkpoint base state restored"
    [ ("S1", 30.0); ("S2", 40.0); ("S3", 50.0) ]
    (List.map
       (fun row -> (Value.to_string row.(0), Value.to_float row.(1)))
       (Strip_db.query_rows db2
          "select symbol, price from stocks order by symbol"));
  Strip_db.run db2;
  let audit = Auditor.audit db2 in
  Alcotest.(check int) "audit finds nothing broken after the drain" 0
    (List.length audit.Auditor.divergences)

(* ------------------------------------------------------------------ *)
(* The planted bug: a checkpoint-image flip with the scrubber disabled
   is never read, so nothing detects it — [no_silent_corruption] must
   fire, and the shrinker must isolate the flip as a 1-minimal
   replayable reproducer. *)

let scrubless = { Experiment.scrub_every = None; retain = 2 }

let test_planted_silent_corruption_shrinks () =
  let rot = Experiment.Bitrot_at { at = 18.0; target = `Checkpoint; frac = 0.5 } in
  let s =
    {
      Schedule.seed = 0;
      scale = 0.02;
      events =
        [
          Experiment.Checkpoint_at 6.0;
          Experiment.Drop_burst { at = 8.0; until_s = 9.0; rate = 0.5 };
          rot;
        ];
    }
  in
  let silent o =
    List.exists
      (fun v -> v.Explore.invariant = "no_silent_corruption")
      o.Explore.violations
  in
  let o = Explore.run_schedule ~storage:scrubless s in
  Alcotest.(check bool) "the de-armed scrubber misses the rot" true (silent o);
  (match o.Explore.storage with
  | Some sm ->
    Alcotest.(check int) "the flip landed" 1 sm.Experiment.injected_bitrot_cp;
    Alcotest.(check bool) "and stayed outstanding" true
      (sm.Experiment.faults_outstanding >= 1)
  | None -> Alcotest.fail "expected storage metrics");
  (* the default scrubber catches the identical schedule *)
  let o_scrubbed = Explore.run_schedule s in
  Alcotest.(check bool) "the default scrubber detects it" false
    (silent o_scrubbed);
  (* shrink: the decoys fall away, the flip alone reproduces *)
  let shrunk = Explore.shrink ~storage:scrubless s in
  Alcotest.(check int) "1-minimal reproducer" 1
    (List.length shrunk.Explore.schedule.Schedule.events);
  (match shrunk.Explore.schedule.Schedule.events with
  | [ Experiment.Bitrot_at { target = `Checkpoint; _ } ] -> ()
  | _ -> Alcotest.fail "expected the checkpoint flip to survive shrinking");
  Alcotest.(check bool) "the violation survives the shrink" true (silent shrunk);
  (* the serialized reproducer replays the identical silent fault *)
  let replayed =
    Explore.run_schedule ~storage:scrubless
      (Schedule.of_string (Schedule.to_string shrunk.Explore.schedule))
  in
  Alcotest.(check bool) "replay reproduces the violation" true (silent replayed)

(* Rot in a slot that a later checkpoint makes an older one: the paced
   cycle still reaches it within the detection bound, while three slots
   keep it retained long enough for a cycle stuck on the newest slot to
   be caught out by [detected_within_bound]. *)
let test_older_slot_rot_within_bound () =
  let s =
    {
      Schedule.seed = 0;
      scale = 0.02;
      events =
        [
          Experiment.Bitrot_at { at = 18.2; target = `Checkpoint; frac = 0.5 };
          Experiment.Checkpoint_at 18.3;
        ];
    }
  in
  let o =
    Explore.run_schedule ~storage:{ Experiment.scrub_every = Some 0.5; retain = 3 } s
  in
  Alcotest.(check (list string)) "no invariant violated" []
    (List.map (fun v -> v.Explore.invariant) o.Explore.violations);
  match o.Explore.storage with
  | Some sm ->
    Alcotest.(check int) "the rotted slot was read and repaired" 1
      sm.Experiment.faults_repaired;
    Alcotest.(check int) "within the bound" 0 sm.Experiment.faults_late;
    let scrub name = Report.count o.Explore.registry ("scrub_" ^ name ^ "_total") in
    Alcotest.(check bool) "no pass re-read more than the budget" true
      (sm.Experiment.scrub_bytes + scrub "slot_bytes"
      <= scrub "passes" * Scrub.budget)
  | None -> Alcotest.fail "expected storage metrics"

(* A disk-full clamp with almost no headroom: the next commits fill the
   device, the refused append crashes the primary inside the full window,
   and it restarts in place (no replicas) about 2.4 s later.  The clamp
   lives on the WAL, which survives the restart, and the heal is due
   after it, so only the heal that the restarted incarnation re-arms
   lets the feed finish without filling the device again (it does,
   twice, when the heal never comes). *)
let test_disk_full_crash_heals_after_restart () =
  Task.reset_ids ();
  let base =
    Experiment.default_config
      (Experiment.Comp_view Comp_rules.Unique_on_comp)
      ~delay:0.5
  in
  let cfg = Experiment.quick base 0.02 in
  let m =
    Experiment.run
      {
        cfg with
        Experiment.verify = true;
        recovery = Some Experiment.default_recovery;
        chaos =
          [
            Experiment.Disk_full_at
              { at = 24.0; free_bytes = 256; heal_after_s = 4.0 };
          ];
      }
  in
  (match m.Experiment.storage with
  | Some sm ->
    Alcotest.(check int) "one append refused" 1 sm.Experiment.disk_fulls;
    Alcotest.(check bool) "the media converged" true sm.Experiment.final_clean
  | None -> Alcotest.fail "expected storage metrics on a disk-full schedule");
  (match m.Experiment.recovery with
  | Some r ->
    Alcotest.(check int) "one disk-full crash, none after the heal" 1
      r.Experiment.n_crashes;
    Alcotest.(check bool) "audit clean" true r.Experiment.audit_clean
  | None -> Alcotest.fail "expected recovery metrics");
  Alcotest.(check (option bool)) "view verified against recomputation"
    (Some true) m.Experiment.verified

(* ------------------------------------------------------------------ *)
(* Storage sweep smoke + flag-off identity *)

let test_storage_sweep_smoke () =
  let outcomes = Explore.explore_storage ~scale:0.02 ~seed:2 ~schedules:2 () in
  Alcotest.(check int) "every schedule ran" 2 (List.length outcomes);
  Alcotest.(check int) "no invariant violated" 0
    (Explore.total_violations outcomes);
  List.iter
    (fun o ->
      Alcotest.(check bool) "every schedule carries a media event" true
        (List.exists Experiment.is_storage_event
           o.Explore.schedule.Schedule.events);
      match o.Explore.storage with
      | Some sm ->
        Alcotest.(check int) "no silent corruption" 0
          sm.Experiment.faults_outstanding;
        Alcotest.(check bool) "the media converged" true
          sm.Experiment.final_clean;
        let open Strip_obs in
        let j = Explore.outcome_json o in
        Alcotest.(check bool) "outcome JSON carries the storage block" true
          (Json.member "storage" j <> None)
      | None -> Alcotest.fail "expected storage metrics on a storage schedule")
    outcomes;
  (* determinism: the identical sweep replays byte-identically *)
  let outcomes' = Explore.explore_storage ~scale:0.02 ~seed:2 ~schedules:2 () in
  Alcotest.(check bool) "the sweep is deterministic" true
    (outcomes = outcomes')

let test_flag_off_no_storage_surface () =
  (* With no storage config and no media events, the substrate must not
     arm: no metrics block, no JSON member, and the durable bytes are
     identical to a run that never heard of storage faults. *)
  Task.reset_ids ();
  let base =
    Experiment.default_config
      (Experiment.Comp_view Comp_rules.Unique_on_comp)
      ~delay:0.5
  in
  let cfg = Experiment.quick base 0.02 in
  let cfg =
    { cfg with Experiment.recovery = Some Experiment.default_recovery }
  in
  let m = Experiment.run cfg in
  Alcotest.(check bool) "no storage metrics" true (m.Experiment.storage = None);
  let open Strip_obs in
  Alcotest.(check bool) "no storage member in the report JSON" true
    (Json.member "storage" (Report.metrics_json m) = None);
  (* arming the substrate without any fault must not change the run's
     observable outcome: same makespan, same recompute count, same
     maintained-view verification *)
  Task.reset_ids ();
  let m' =
    Experiment.run
      { cfg with Experiment.storage = Some Experiment.default_storage }
  in
  (match m'.Experiment.storage with
  | Some sm ->
    Alcotest.(check int) "nothing injected" 0
      (sm.Experiment.injected_bitrot_wal + sm.Experiment.injected_bitrot_cp
     + sm.Experiment.injected_fsync_lie);
    Alcotest.(check int) "nothing outstanding" 0
      sm.Experiment.faults_outstanding;
    let scrub name =
      Report.count m'.Experiment.registry ("scrub_" ^ name ^ "_total")
    in
    Alcotest.(check bool) "scrubber ran and found the media clean" true
      (scrub "passes" > 0 && scrub "wal_corruptions" = 0);
    Alcotest.(check bool) "final media clean" true sm.Experiment.final_clean
  | None -> Alcotest.fail "expected storage metrics when armed");
  (* the workload itself is untouched — the scrubber only adds its own
     modeled scan time, it never changes what the engine computes *)
  Alcotest.(check int) "same recompute count" m.Experiment.n_recompute
    m'.Experiment.n_recompute;
  Alcotest.(check int) "same update count" m.Experiment.n_updates
    m'.Experiment.n_updates;
  (* flag-off is bit-stable: two identical unarmed runs agree exactly *)
  Task.reset_ids ();
  let m'' = Experiment.run cfg in
  Alcotest.(check (float 1e-9)) "flag-off runs are byte-stable"
    m.Experiment.makespan_s m''.Experiment.makespan_s;
  Alcotest.(check string) "flag-off reports are byte-identical"
    (Json.to_string (Report.metrics_json m))
    (Json.to_string (Report.metrics_json m''))

let suite =
  [
    ( "storage/wal",
      [
        Alcotest.test_case "flips in every frame region detected" `Quick
          test_frame_region_flips;
        Alcotest.test_case "torn tail is not flagged as rot" `Quick
          test_torn_tail_not_flagged;
        Alcotest.test_case "rot at the truncation boundary" `Quick
          test_truncation_boundary_flip;
        Alcotest.test_case "bound-rows rot splices back byte-identically"
          `Quick test_bound_rows_flip_and_splice;
        Alcotest.test_case "verdict-only scans agree with decoding" `Quick
          test_verdict_scans_match_decoding;
      ] );
    ( "storage/checkpoint",
      [
        Alcotest.test_case "slot CRC fallback past a rotted image" `Quick
          test_slot_crc_fallback;
        Alcotest.test_case "rot stays in the slot it hit (shared segments)"
          `Quick test_slot_rot_stays_private;
        Alcotest.test_case "three slots share a segment; rot hits one" `Quick
          test_slot_rot_three_slots;
        Alcotest.test_case "parts and one string verify alike" `Quick
          test_parts_match_encoded;
      ] );
    ( "storage/scrub",
      [
        Alcotest.test_case "a paced cycle reports what a full pass does"
          `Quick test_paced_matches_reference;
        Alcotest.test_case "the WAL cursor survives truncate, drop, splice"
          `Quick test_cursor_survives_log_changes;
        Alcotest.test_case "two rotted slots, only one read" `Quick
          test_two_rotted_slots_one_read;
        Alcotest.test_case "a settled fault frees its slot" `Quick
          test_settled_fault_frees_slot;
        Alcotest.test_case "rot is read within the detection bound" `Quick
          test_detection_bound;
      ] );
    ( "storage/recovery",
      [
        Alcotest.test_case "double fault: replica salvage during redo" `Slow
          test_recovery_salvage_from_replica;
        Alcotest.test_case "double fault: quarantine without a replica" `Slow
          test_recovery_quarantine_without_replica;
      ] );
    ( "storage/chaos",
      [
        Alcotest.test_case "planted silent rot shrinks to 1-minimal" `Slow
          test_planted_silent_corruption_shrinks;
        Alcotest.test_case "older-slot rot is read within the bound" `Slow
          test_older_slot_rot_within_bound;
        Alcotest.test_case "storage sweep runs clean and deterministic" `Slow
          test_storage_sweep_smoke;
        Alcotest.test_case "flag-off leaves no storage surface" `Slow
          test_flag_off_no_storage_surface;
        Alcotest.test_case "a disk-full crash heals after the restart" `Quick
          test_disk_full_crash_heals_after_restart;
      ] );
  ]
