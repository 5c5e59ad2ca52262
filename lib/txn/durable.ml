(* Stable storage: WAL + retained checkpoint slots + media-fault ledger. *)

type part = { bytes : string; crc : int }

(* A slot's image is the concatenation of its parts.  Parts are
   immutable and shared: an unchanged table's segment sits in the
   checkpoint cache and in every slot that contains it.  A slot is
   identified physically; only rot replaces its parts. *)
type slot = {
  mutable s_parts : part list;
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
  mutable f_slot : slot option;
      (* the slot a checkpoint fault hit, until the fault is settled *)
  mutable f_state : fault_state;
  mutable f_passes : int;  (* scrub passes that ended with it Outstanding *)
  mutable f_retained : int;  (* most retained bytes seen at those passes *)
  mutable f_late : bool;  (* stayed Outstanding past the detection bound *)
}

(* Where a scrub cycle over one store stands: the retained WAL frames
   from [c_wal], then the slots in [c_todo] — the slots retained when the
   WAL side finished, newest first, minus those already judged — so a
   slot installed after that waits for the next cycle, and one dropped
   or rotated out before its turn is skipped.  [c_seen] holds the fresh
   CRC of every part read this cycle, by physical identity, so a part
   several slots share is read once per cycle; [c_part] is the part
   being read across steps, [c_off] bytes in with CRC [c_crc] so far. *)
type cursor = {
  mutable c_in_wal : bool;
  mutable c_wal : int;
  mutable c_todo : slot list option;  (* [None] until the WAL side is done *)
  mutable c_seen : (string * int) list;
  mutable c_part : string;
  mutable c_off : int;
  mutable c_crc : int;
}

type step = {
  wal_ranges : (int * int) list;
  bad_slots : slot list;
  wal_bytes : int;
  slot_bytes : int;
  closed : bool;
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

let publish t ~parts ~lsn ~time =
  (* the image CRC is folded from the part CRCs: no byte is re-read *)
  let len, crc =
    List.fold_left
      (fun (len, crc) p ->
        let n = String.length p.bytes in
        (len + n, Codec.crc32_combine crc p.crc n))
      (0, 0) parts
  in
  let s = { s_parts = parts; s_len = len; s_crc = crc; s_lsn = lsn; s_time = time } in
  t.slots <- take t.retain (s :: t.slots)

let install_parts t ~parts ~lsn ~time =
  publish t ~parts ~lsn ~time;
  t.checkpoints <- t.checkpoints + 1

let install_checkpoint t ~encoded ~lsn ~time =
  publish t ~parts:[ part encoded ] ~lsn ~time

let continue_counts t ~from =
  Wal.continue_counts t.wal ~from:from.wal;
  t.checkpoints <- from.checkpoints + t.checkpoints

let last_checkpoint_bytes t = match t.slots with [] -> 0 | s :: _ -> s.s_len

(* One verification pass re-reads every byte of every physically
   distinct part once: [seen] memoizes the fresh CRC of each part's bytes
   by physical identity, so a segment that several slots share is read
   once per pass, and each slot's CRC is combined from the fresh part
   CRCs and checked against the slot's stored CRC, never against the
   parts' own.  A [seen] lives for one check, or for one scrub cycle
   (a cursor's [c_seen]). *)
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

let record t ~kind ~lsn ~len ~slot =
  t.ledger <-
    {
      f_kind = kind;
      f_lsn = lsn;
      f_len = len;
      f_slot = slot;
      f_state = Outstanding;
      f_passes = 0;
      f_retained = 0;
      f_late = false;
    }
    :: t.ledger

let note_injected t ~kind ~lsn ~len = record t ~kind ~lsn ~len ~slot:None

let wal_kind = function Bitrot_wal | Fsync_lie -> true | Bitrot_checkpoint -> false

let overlaps f ~lsn ~len = f.f_lsn < lsn + len && lsn < f.f_lsn + f.f_len

(* A fault that reaches a terminal state lets go of its slot, so the
   ledger does not keep a rotated-out slot's parts alive: only
   [Outstanding] and [Detected] faults are ever selected by slot. *)
let transition t ~select ~from ~to_ =
  List.iter
    (fun f ->
      if List.mem f.f_state from && select f then begin
        f.f_state <- to_;
        if to_ <> Outstanding && to_ <> Detected then f.f_slot <- None
      end)
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

let in_slot s f = match f.f_slot with Some s' -> s' == s | None -> false

let slot_detected t s =
  transition t ~select:(in_slot s) ~from:[ Outstanding ] ~to_:Detected

let note_cp_detected t ~newest =
  List.iteri (fun i s -> if i < newest then slot_detected t s) t.slots

let note_cp_repaired t s =
  transition t ~select:(in_slot s) ~from:[ Outstanding; Detected ]
    ~to_:Repaired

let note_abandoned t =
  (* the whole store left service (failover elected another node);
     nothing in it can influence a read anymore *)
  transition t ~select:(fun _ -> true) ~from:[ Outstanding; Detected ]
    ~to_:Expunged

let flip_snapshot_byte t ~frac =
  match t.slots with
  | [] -> false
  | s :: _ ->
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
      s.s_parts <- rot off s.s_parts;
      record t ~kind:Bitrot_checkpoint ~lsn:s.s_lsn ~len:1 ~slot:(Some s);
      true
    end

let rot t ~target ~frac =
  match target with
  | `Wal ->
    let n = Wal.durable_bytes t.wal in
    if n = 0 then false
    else begin
      let off = min (int_of_float (frac *. float_of_int n)) (n - 1) in
      let lsn = Wal.base_lsn t.wal + off in
      Wal.flip_byte t.wal ~lsn;
      note_injected t ~kind:Bitrot_wal ~lsn ~len:1;
      true
    end
  | `Checkpoint -> flip_snapshot_byte t ~frac

let arm_fsync_lie t ~notify =
  Wal.arm_fsync_lie t.wal ~notify:(fun ~lsn ~len ->
      note_injected t ~kind:Fsync_lie ~lsn ~len;
      notify ())

(* ------------------------------------------------------------------ *)
(* Paced scrubbing: one step of a round-robin cycle over the retained
   WAL frames and then each distinct checkpoint part, newest slot first.
   A slot is judged once every one of its parts has been read in the
   current cycle; a bad one is dropped and its faults marked Detected. *)

let cursor () =
  {
    c_in_wal = true;
    c_wal = min_int;
    c_todo = None;
    c_seen = [];
    c_part = "";
    c_off = 0;
    c_crc = 0;
  }

let rewind c =
  c.c_in_wal <- true;
  c.c_wal <- min_int;
  c.c_todo <- None;
  c.c_seen <- [];
  c.c_part <- "";
  c.c_off <- 0;
  c.c_crc <- 0

(* Read part [p] into cursor [c] for at most [!left] bytes, resuming it
   where an earlier step stopped; true once its fresh CRC is in
   [c.c_seen].  [read] counts the bytes re-read. *)
let read_part c ~left ~read p =
  List.mem_assq p.bytes c.c_seen
  ||
  let len = String.length p.bytes in
  let off, crc = if c.c_part == p.bytes then (c.c_off, c.c_crc) else (0, 0) in
  let k = max 0 (min !left (len - off)) in
  if k = 0 && off < len then false
  else begin
    let crc = Codec.crc32_sub crc p.bytes off k in
    left := !left - k;
    read := !read + k;
    if off + k = len then begin
      c.c_seen <- (p.bytes, crc) :: c.c_seen;
      c.c_part <- "";
      true
    end
    else begin
      c.c_part <- p.bytes;
      c.c_off <- off + k;
      c.c_crc <- crc;
      false
    end
  end

let scrub_step t c ~budget =
  let wal_ranges, wal_bytes =
    if not c.c_in_wal then ([], 0)
    else begin
      let from = max c.c_wal (Wal.base_lsn t.wal) in
      let next, ranges = Wal.verify_step t.wal ~from ~budget in
      c.c_wal <- next;
      if next >= Wal.durable_end t.wal then c.c_in_wal <- false;
      (ranges, next - from)
    end
  in
  let left = ref (budget - wal_bytes) and read = ref 0 and bad = ref [] in
  let rec slots = function
    | [] ->
      rewind c;
      true
    | s :: rest when not (List.memq s t.slots) -> slots rest
    | s :: rest ->
      if List.for_all (read_part c ~left ~read) s.s_parts then begin
        (* every part's fresh CRC is in [c_seen]: nothing is re-read *)
        if not (slot_valid (ref c.c_seen) s) then begin
          t.slots <- List.filter (fun s' -> s' != s) t.slots;
          slot_detected t s;
          bad := s :: !bad
        end;
        slots rest
      end
      else begin
        c.c_todo <- Some (s :: rest);
        false
      end
  in
  let closed =
    (not c.c_in_wal)
    && slots (match c.c_todo with Some todo -> todo | None -> t.slots)
  in
  { wal_ranges; bad_slots = List.rev !bad; wal_bytes; slot_bytes = !read; closed }

let slot_time s = s.s_time

let retained_bytes t =
  let parts =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc p -> if List.memq p.bytes acc then acc else p.bytes :: acc)
          acc s.s_parts)
      [] t.slots
  in
  List.fold_left (fun n b -> n + String.length b) (Wal.durable_bytes t.wal) parts

let note_scrub_pass t ~budget =
  (* the checkpoint counterpart of [note_truncated]: a slot that left
     retention before the cycle reached it took its faults with it *)
  transition t
    ~select:(fun f ->
      match f.f_slot with
      | Some s -> not (List.memq s t.slots)
      | None -> false)
    ~from:[ Outstanding; Detected ] ~to_:Expunged;
  if List.exists (fun f -> f.f_state = Outstanding) t.ledger then begin
    let retained = retained_bytes t in
    List.iter
      (fun f ->
        if f.f_state = Outstanding then begin
          f.f_passes <- f.f_passes + 1;
          f.f_retained <- max f.f_retained retained;
          if f.f_passes >= ((f.f_retained + budget - 1) / budget) + 1 then
            f.f_late <- true
        end)
      t.ledger
  end

let scrub_slots t =
  (* one whole slot-side cycle: drop every slot whose image no longer
     matches its CRC; returns how many were dropped *)
  let c = cursor () in
  c.c_in_wal <- false;
  List.length (scrub_step t c ~budget:max_int).bad_slots

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
  late : int;
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
    late = 0;
  }

let add_counts t c =
  List.fold_left
    (fun c f ->
      let c = if f.f_late then { c with late = c.late + 1 } else c in
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
