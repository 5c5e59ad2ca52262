(* Stable storage: WAL + retained checkpoint slots + media-fault ledger. *)

type part = { bytes : string; crc : int }

(* A slot's image is the concatenation of its parts.  Parts are
   immutable and shared: an unchanged table's segment sits in the
   checkpoint cache and in every slot that contains it. *)
type slot = {
  s_parts : part list;
  s_len : int;
  s_crc : int;  (* CRC32 of the image, combined from the parts' at install *)
  s_lsn : int;
  s_time : float;
}

type fault_kind = Bitrot_wal | Bitrot_checkpoint | Fsync_lie

type fault_state =
  | Outstanding  (* injected, not yet noticed by anything *)
  | Detected  (* noticed (scrub / ship verify / recovery), not yet fixed *)
  | Repaired  (* clean bytes restored (replica splice or fresh checkpoint) *)
  | Quarantined  (* corrupt range dropped from the log; never served *)
  | Expunged
      (* left the system without ever being read: truncated behind a
         checkpoint, or the whole store was abandoned at failover *)

type media_fault = {
  f_kind : fault_kind;
  f_lsn : int;
  f_len : int;
  mutable f_state : fault_state;
}

type t = {
  wal : Wal.t;
  mutable slots : slot list;  (* newest first, at most [retain] *)
  retain : int;
  mutable checkpoints : int;
  mutable media_armed : bool;
  mutable ledger : media_fault list;  (* newest first *)
}

let create ?wal ?(retain = 1) () =
  {
    wal = (match wal with Some w -> w | None -> Wal.create ());
    slots = [];
    retain = max 1 retain;
    checkpoints = 0;
    media_armed = false;
    ledger = [];
  }

let part bytes = { bytes; crc = Codec.crc32 bytes }

let flatten s =
  match s.s_parts with
  | [ p ] -> p.bytes
  | parts -> String.concat "" (List.map (fun p -> p.bytes) parts)

let wal t = t.wal
let retain t = t.retain
let snapshot t = match t.slots with [] -> None | s :: _ -> Some (flatten s)
let snapshot_lsn t = match t.slots with [] -> 0 | s :: _ -> s.s_lsn
let snapshot_time t = match t.slots with [] -> 0.0 | s :: _ -> s.s_time
let snapshot_crc t = match t.slots with [] -> 0 | s :: _ -> s.s_crc
let n_checkpoints t = t.checkpoints

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let install_parts t ~parts ~lsn ~time =
  (* the image CRC is folded from the part CRCs: no byte is re-read *)
  let len, crc =
    List.fold_left
      (fun (len, crc) p ->
        let n = String.length p.bytes in
        (len + n, Codec.crc32_combine crc p.crc n))
      (0, 0) parts
  in
  let s = { s_parts = parts; s_len = len; s_crc = crc; s_lsn = lsn; s_time = time } in
  t.slots <- take t.retain (s :: t.slots);
  t.checkpoints <- t.checkpoints + 1

let install_checkpoint t ~encoded ~lsn ~time =
  install_parts t ~parts:[ part encoded ] ~lsn ~time

let last_checkpoint_bytes t = match t.slots with [] -> 0 | s :: _ -> s.s_len

(* One verification pass re-reads every byte of every physically
   distinct part once: [seen] memoizes the fresh CRC of each part's bytes
   by physical identity, so a segment that several slots share is read
   once per pass, and each slot's CRC is combined from the fresh part
   CRCs and checked against the slot's stored CRC, never against the
   parts' own.  A [seen] lives for one pass only. *)
let fresh_crc seen p =
  match List.assq_opt p.bytes !seen with
  | Some crc -> crc
  | None ->
    let crc = Codec.crc32 p.bytes in
    seen := (p.bytes, crc) :: !seen;
    crc

let slot_valid seen s =
  List.fold_left
    (fun crc p -> Codec.crc32_combine crc (fresh_crc seen p) (String.length p.bytes))
    0 s.s_parts
  = s.s_crc

let verified_slot t =
  (* a usable slot must pass its CRC *and* still have its redo tail: a
     slot whose LSN fell behind the log's base (an emergency scrub
     checkpoint truncated aggressively) cannot be replayed from *)
  let base = Wal.base_lsn t.wal in
  let seen = ref [] in
  let rec go skipped = function
    | [] -> None
    | s :: rest ->
      if slot_valid seen s && s.s_lsn >= base then
        Some (flatten s, s.s_lsn, s.s_time, skipped)
      else go (skipped + 1) rest
  in
  go 0 t.slots

let truncation_floor t =
  match List.rev t.slots with [] -> 0 | oldest :: _ -> oldest.s_lsn

(* ------------------------------------------------------------------ *)
(* Media-fault ledger.  Every injected at-rest fault is recorded here
   and must leave the [Outstanding] state before the run ends — the
   chaos invariant [no_silent_corruption] checks exactly that. *)

let arm_media t = t.media_armed <- true
let media_armed t = t.media_armed

let note_injected t ~kind ~lsn ~len =
  t.ledger <- { f_kind = kind; f_lsn = lsn; f_len = len; f_state = Outstanding }
              :: t.ledger

let wal_kind = function Bitrot_wal | Fsync_lie -> true | Bitrot_checkpoint -> false

let overlaps f ~lsn ~len = f.f_lsn < lsn + len && lsn < f.f_lsn + f.f_len

let transition t ~select ~from ~to_ =
  List.iter
    (fun f -> if List.mem f.f_state from && select f then f.f_state <- to_)
    t.ledger

let note_wal_detected t ~lsn ~len =
  transition t
    ~select:(fun f -> wal_kind f.f_kind && overlaps f ~lsn ~len)
    ~from:[ Outstanding ] ~to_:Detected

let note_wal_repaired t ~lsn ~len =
  transition t
    ~select:(fun f -> wal_kind f.f_kind && overlaps f ~lsn ~len)
    ~from:[ Outstanding; Detected ] ~to_:Repaired

let note_wal_quarantined t ~from_lsn =
  transition t
    ~select:(fun f -> wal_kind f.f_kind && f.f_lsn + f.f_len > from_lsn)
    ~from:[ Outstanding; Detected ] ~to_:Quarantined

let note_truncated t ~below =
  (* bytes behind a checkpoint leave the log without ever being read:
     an undetected fault there is benign and an already-detected one is
     fixed by construction (the checkpoint captured clean live state) *)
  transition t
    ~select:(fun f -> wal_kind f.f_kind && f.f_lsn + f.f_len <= below)
    ~from:[ Outstanding; Detected ] ~to_:Expunged

let note_cp_detected t =
  transition t
    ~select:(fun f -> f.f_kind = Bitrot_checkpoint)
    ~from:[ Outstanding ] ~to_:Detected

let note_cp_repaired t =
  transition t
    ~select:(fun f -> f.f_kind = Bitrot_checkpoint)
    ~from:[ Outstanding; Detected ] ~to_:Repaired

let note_abandoned t =
  (* the whole store left service (failover elected another node);
     nothing in it can influence a read anymore *)
  transition t ~select:(fun _ -> true) ~from:[ Outstanding; Detected ]
    ~to_:Expunged

let flip_snapshot_byte t ~frac =
  match t.slots with
  | [] -> false
  | s :: rest ->
    let n = s.s_len in
    if n = 0 then false
    else begin
      let off = min (int_of_float (frac *. float_of_int n)) (n - 1) in
      (* rot a private copy of the one part the offset falls in: the
         original may be shared with the checkpoint cache and older
         slots, which must stay clean *)
      let rec rot off = function
        | [] -> []
        | p :: ps when off >= String.length p.bytes ->
          p :: rot (off - String.length p.bytes) ps
        | p :: ps ->
          let b = Bytes.of_string p.bytes in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
          (* the stored CRCs are kept: they were computed over the clean
             bytes, so verification now fails — that is the point *)
          { p with bytes = Bytes.unsafe_to_string b } :: ps
      in
      t.slots <- { s with s_parts = rot off s.s_parts } :: rest;
      note_injected t ~kind:Bitrot_checkpoint ~lsn:s.s_lsn ~len:1;
      true
    end

let scrub_slots t =
  (* drop (quarantine) every slot whose image no longer matches its CRC;
     returns how many were dropped *)
  let seen = ref [] in
  let bad, good = List.partition (fun s -> not (slot_valid seen s)) t.slots in
  if bad <> [] then begin
    t.slots <- good;
    note_cp_detected t
  end;
  List.length bad

let slots_valid t = List.for_all (slot_valid (ref [])) t.slots

type media_counts = {
  injected_bitrot_wal : int;
  injected_bitrot_cp : int;
  injected_fsync_lie : int;
  detected : int;
  repaired : int;
  quarantined : int;
  expunged : int;
  outstanding : int;
}

let zero_counts =
  {
    injected_bitrot_wal = 0;
    injected_bitrot_cp = 0;
    injected_fsync_lie = 0;
    detected = 0;
    repaired = 0;
    quarantined = 0;
    expunged = 0;
    outstanding = 0;
  }

let add_counts t c =
  List.fold_left
    (fun c f ->
      let c =
        match f.f_kind with
        | Bitrot_wal -> { c with injected_bitrot_wal = c.injected_bitrot_wal + 1 }
        | Bitrot_checkpoint ->
          { c with injected_bitrot_cp = c.injected_bitrot_cp + 1 }
        | Fsync_lie -> { c with injected_fsync_lie = c.injected_fsync_lie + 1 }
      in
      match f.f_state with
      | Outstanding -> { c with outstanding = c.outstanding + 1 }
      | Detected -> { c with detected = c.detected + 1 }
      | Repaired -> { c with repaired = c.repaired + 1 }
      | Quarantined -> { c with quarantined = c.quarantined + 1 }
      | Expunged -> { c with expunged = c.expunged + 1 })
    c t.ledger

let media_counts t = add_counts t zero_counts
let outstanding t = (media_counts t).outstanding
