open Strip_relational

(* ------------------------------------------------------------------ *)
(* Record vocabulary.                                                   *)

let c_wal_append = Meter.counter "wal_append"
let c_wal_fsync = Meter.counter "wal_fsync"

type op =
  | Insert of { table : string; order : int; values : Value.t array }
  | Delete of { table : string; order : int; values : Value.t array }
  | Update of {
      table : string;
      order : int;
      old_values : Value.t array;
      new_values : Value.t array;
    }

type bound_rows = (string * Value.t array list) list

(* What a trace note annotates: the commit with this txid (so a replica
   can parent its apply span under the primary's commit span), or the
   queued unique batch for (func, key) (so crash recovery can reattach
   the context to the resubmitted task). *)
type trace_subject =
  | For_txn of int
  | For_uq of { func : string; key : Value.t list }

type record =
  | Commit of { txid : int; time : float; ops : op list }
  | Uq_enqueue of {
      func : string;
      key : Value.t list;
      release_time : float;
      created_at : float;
      bound : bound_rows;
    }
  | Uq_merge of { func : string; key : Value.t list; bound : bound_rows }
  | Uq_release of { func : string; key : Value.t list }
  | Checkpoint_mark of { time : float; lsn : int }
  | Trace_note of { subject : trace_subject; trace : int; span : int }
      (* written only when tracing is on, riding the same fsync as the
         record it annotates; flag-off logs carry no notes and stay
         byte-identical *)
  | Shard_out of {
      seq : int;
      dst : int;
      key : Value.t list;
      delta : float;
      created_at : float;
    }
  | Shard_in of {
      src : int;
      seq : int;
      key : Value.t list;
      delta : float;
      created_at : float;
    }
  | Shard_release of { key : Value.t list }
  | Shard_state of {
      out_seqs : (int * int) list;
      watermarks : (int * int * int list) list;
      pending : (Value.t list * float * float) list;
      unacked : (int * int * Value.t list * float * float) list;
    }

let op_table = function
  | Insert { table; _ } | Delete { table; _ } | Update { table; _ } -> table

let op_order = function
  | Insert { order; _ } | Delete { order; _ } | Update { order; _ } -> order

let record_values (r : Record.t) = r.Record.values

let ops_of_tlog log =
  List.map
    (fun (e : Tlog.entry) ->
      match e.Tlog.change with
      | Tlog.Inserted r ->
        Insert
          {
            table = e.Tlog.table;
            order = e.Tlog.execute_order;
            values = record_values r;
          }
      | Tlog.Deleted r ->
        Delete
          {
            table = e.Tlog.table;
            order = e.Tlog.execute_order;
            values = record_values r;
          }
      | Tlog.Updated { old_rec; new_rec } ->
        Update
          {
            table = e.Tlog.table;
            order = e.Tlog.execute_order;
            old_values = record_values old_rec;
            new_values = record_values new_rec;
          })
    (Tlog.entries log)

(* ------------------------------------------------------------------ *)
(* Payload encoding.                                                    *)

let put_op b op =
  match op with
  | Insert { table; order; values } ->
    Codec.put_u8 b 0;
    Codec.put_string b table;
    Codec.put_int b order;
    Codec.put_values b values
  | Delete { table; order; values } ->
    Codec.put_u8 b 1;
    Codec.put_string b table;
    Codec.put_int b order;
    Codec.put_values b values
  | Update { table; order; old_values; new_values } ->
    Codec.put_u8 b 2;
    Codec.put_string b table;
    Codec.put_int b order;
    Codec.put_values b old_values;
    Codec.put_values b new_values

let get_op r =
  match Codec.get_u8 r with
  | 0 ->
    let table = Codec.get_string r in
    let order = Codec.get_int r in
    let values = Codec.get_values r in
    Insert { table; order; values }
  | 1 ->
    let table = Codec.get_string r in
    let order = Codec.get_int r in
    let values = Codec.get_values r in
    Delete { table; order; values }
  | 2 ->
    let table = Codec.get_string r in
    let order = Codec.get_int r in
    let old_values = Codec.get_values r in
    let new_values = Codec.get_values r in
    Update { table; order; old_values; new_values }
  | tag -> raise (Codec.Decode_error (Printf.sprintf "op tag %d" tag))

let put_bound b (bound : bound_rows) =
  Codec.put_list b
    (fun b (name, rows) ->
      Codec.put_string b name;
      Codec.put_list b Codec.put_values rows)
    bound

let get_bound r : bound_rows =
  Codec.get_list r (fun r ->
      let name = Codec.get_string r in
      let rows = Codec.get_list r Codec.get_values in
      (name, rows))

(* A shipped partial as the Shard_* records lay it out: a shard and a seq
   (in the record's order), the key, the delta and its commit time. *)
let put_ship b i j key delta created_at =
  Codec.put_int b i;
  Codec.put_int b j;
  Codec.put_list b Codec.put_value key;
  Codec.put_float b delta;
  Codec.put_float b created_at

let get_ship r =
  let i = Codec.get_int r in
  let j = Codec.get_int r in
  let key = Codec.get_list r Codec.get_value in
  let delta = Codec.get_float r in
  let created_at = Codec.get_float r in
  (i, j, key, delta, created_at)

let encode_record_into b rec_ =
  (match rec_ with
  | Commit { txid; time; ops } ->
    Codec.put_u8 b 0;
    Codec.put_int b txid;
    Codec.put_float b time;
    Codec.put_list b put_op ops
  | Uq_enqueue { func; key; release_time; created_at; bound } ->
    Codec.put_u8 b 1;
    Codec.put_string b func;
    Codec.put_list b Codec.put_value key;
    Codec.put_float b release_time;
    Codec.put_float b created_at;
    put_bound b bound
  | Uq_merge { func; key; bound } ->
    Codec.put_u8 b 2;
    Codec.put_string b func;
    Codec.put_list b Codec.put_value key;
    put_bound b bound
  | Uq_release { func; key } ->
    Codec.put_u8 b 3;
    Codec.put_string b func;
    Codec.put_list b Codec.put_value key
  | Checkpoint_mark { time; lsn } ->
    Codec.put_u8 b 4;
    Codec.put_float b time;
    Codec.put_int b lsn
  | Trace_note { subject; trace; span } ->
    Codec.put_u8 b 5;
    (match subject with
    | For_txn txid ->
      Codec.put_u8 b 0;
      Codec.put_int b txid
    | For_uq { func; key } ->
      Codec.put_u8 b 1;
      Codec.put_string b func;
      Codec.put_list b Codec.put_value key);
    Codec.put_int b trace;
    Codec.put_int b span
  | Shard_out { seq; dst; key; delta; created_at } ->
    Codec.put_u8 b 6;
    put_ship b seq dst key delta created_at
  | Shard_in { src; seq; key; delta; created_at } ->
    Codec.put_u8 b 7;
    put_ship b src seq key delta created_at
  | Shard_release { key } ->
    Codec.put_u8 b 8;
    Codec.put_list b Codec.put_value key
  | Shard_state { out_seqs; watermarks; pending; unacked } ->
    Codec.put_u8 b 9;
    Codec.put_list b
      (fun b (dst, seq) ->
        Codec.put_int b dst;
        Codec.put_int b seq)
      out_seqs;
    Codec.put_list b
      (fun b (src, floor, above) ->
        Codec.put_int b src;
        Codec.put_int b floor;
        Codec.put_list b Codec.put_int above)
      watermarks;
    Codec.put_list b
      (fun b (key, delta, created_at) ->
        Codec.put_list b Codec.put_value key;
        Codec.put_float b delta;
        Codec.put_float b created_at)
      pending;
    Codec.put_list b
      (fun b (seq, dst, key, delta, created_at) ->
        put_ship b seq dst key delta created_at)
      unacked)

let decode_record r =
  let rec_ =
    match Codec.get_u8 r with
    | 0 ->
      let txid = Codec.get_int r in
      let time = Codec.get_float r in
      let ops = Codec.get_list r get_op in
      Commit { txid; time; ops }
    | 1 ->
      let func = Codec.get_string r in
      let key = Codec.get_list r Codec.get_value in
      let release_time = Codec.get_float r in
      let created_at = Codec.get_float r in
      let bound = get_bound r in
      Uq_enqueue { func; key; release_time; created_at; bound }
    | 2 ->
      let func = Codec.get_string r in
      let key = Codec.get_list r Codec.get_value in
      let bound = get_bound r in
      Uq_merge { func; key; bound }
    | 3 ->
      let func = Codec.get_string r in
      let key = Codec.get_list r Codec.get_value in
      Uq_release { func; key }
    | 4 ->
      let time = Codec.get_float r in
      let lsn = Codec.get_int r in
      Checkpoint_mark { time; lsn }
    | 5 ->
      let subject =
        match Codec.get_u8 r with
        | 0 -> For_txn (Codec.get_int r)
        | 1 ->
          let func = Codec.get_string r in
          let key = Codec.get_list r Codec.get_value in
          For_uq { func; key }
        | tag ->
          raise (Codec.Decode_error (Printf.sprintf "trace subject tag %d" tag))
      in
      let trace = Codec.get_int r in
      let span = Codec.get_int r in
      Trace_note { subject; trace; span }
    | 6 ->
      let seq, dst, key, delta, created_at = get_ship r in
      Shard_out { seq; dst; key; delta; created_at }
    | 7 ->
      let src, seq, key, delta, created_at = get_ship r in
      Shard_in { src; seq; key; delta; created_at }
    | 8 ->
      let key = Codec.get_list r Codec.get_value in
      Shard_release { key }
    | 9 ->
      let out_seqs =
        Codec.get_list r (fun r ->
            let dst = Codec.get_int r in
            let seq = Codec.get_int r in
            (dst, seq))
      in
      let watermarks =
        Codec.get_list r (fun r ->
            let src = Codec.get_int r in
            let floor = Codec.get_int r in
            let above = Codec.get_list r Codec.get_int in
            (src, floor, above))
      in
      let pending =
        Codec.get_list r (fun r ->
            let key = Codec.get_list r Codec.get_value in
            let delta = Codec.get_float r in
            let created_at = Codec.get_float r in
            (key, delta, created_at))
      in
      let unacked = Codec.get_list r get_ship in
      Shard_state { out_seqs; watermarks; pending; unacked }
    | tag -> raise (Codec.Decode_error (Printf.sprintf "record tag %d" tag))
  in
  if Codec.remaining r > 0 then
    raise (Codec.Decode_error "trailing bytes in record payload");
  rec_

(* ------------------------------------------------------------------ *)
(* The log: a durable byte sequence plus a pending (unsynced) tail.
   Entries are framed [u32 len][u32 crc][payload]; an entry's LSN is the
   byte offset of its frame start since log creation.  [truncate_to]
   drops durable bytes behind a checkpoint without renumbering. *)

exception
  Out_of_range of { fn : string; lsn : int; base_lsn : int; durable_end : int }

exception Disk_full of { need : int; capacity : int; used : int }

let () =
  Printexc.register_printer (function
    | Out_of_range { fn; lsn; base_lsn; durable_end } ->
      Some
        (Printf.sprintf "%s: lsn %d outside the durable log [%d, %d]" fn lsn
           base_lsn durable_end)
    | Disk_full { need; capacity; used } ->
      Some
        (Printf.sprintf
           "Wal.Disk_full: append of %d B refused (capacity %d B, used %d B)"
           need capacity used)
    | _ -> None)

type t = {
  mutable base_lsn : int;  (* LSN of the first byte still retained *)
  durable : Buffer.t;
  pending : Buffer.t;
  scratch : Buffer.t;  (* reused payload-encoding workspace *)
  mutable appends : int;
  mutable fsyncs : int;
  mutable truncations : int;
  mutable appended_bytes : int;
  mutable capacity : int option;
      (* byte budget for durable+pending; None = unbounded (default) *)
  mutable lie_notify : (lsn:int -> len:int -> unit) option;
      (* armed lying fsync: the next fsync discards the acked pending
         bytes, leaving a zero gap of the same length *)
  mutable disk_fulls : int;
  mutable lied_bytes : int;
}

let create ?(base_lsn = 0) () =
  {
    base_lsn;
    durable = Buffer.create 4096;
    pending = Buffer.create 512;
    scratch = Buffer.create 512;
    appends = 0;
    fsyncs = 0;
    truncations = 0;
    appended_bytes = 0;
    capacity = None;
    lie_notify = None;
    disk_fulls = 0;
    lied_bytes = 0;
  }

let base_lsn t = t.base_lsn
let durable_end t = t.base_lsn + Buffer.length t.durable
let end_lsn t = durable_end t + Buffer.length t.pending
let pending_bytes t = Buffer.length t.pending
let durable_bytes t = Buffer.length t.durable
let n_appends t = t.appends
let n_fsyncs t = t.fsyncs
let n_truncations t = t.truncations
let appended_bytes t = t.appended_bytes
let continue_counts t ~from =
  t.appends <- from.appends + t.appends;
  t.fsyncs <- from.fsyncs + t.fsyncs;
  t.appended_bytes <- from.appended_bytes + t.appended_bytes

let n_disk_fulls t = t.disk_fulls
let lied_bytes t = t.lied_bytes
let clamp t free =
  t.capacity <-
    Option.map (fun free -> durable_bytes t + pending_bytes t + free) free
let arm_fsync_lie t ~notify = t.lie_notify <- Some notify

(* [len] bytes from [lsn] must lie in the durable log. *)
let check_range ?(len = 0) t fn lsn =
  if lsn < t.base_lsn || lsn + len > durable_end t then
    raise
      (Out_of_range
         { fn; lsn; base_lsn = t.base_lsn; durable_end = durable_end t })

(* Frame [data.(off..off+len)] as one log entry; the frame layout
   ([u32 len][u32 crc][payload]) is what [scan] below decodes. *)
let frame t data off len =
  (match t.capacity with
  | Some cap ->
    let used = Buffer.length t.durable + Buffer.length t.pending in
    if used + len + 8 > cap then begin
      t.disk_fulls <- t.disk_fulls + 1;
      raise (Disk_full { need = len + 8; capacity = cap; used })
    end
  | None -> ());
  let lsn = end_lsn t in
  Codec.put_u32 t.pending len;
  Codec.put_u32 t.pending (Codec.crc32 ~pos:off ~len data);
  Buffer.add_substring t.pending data off len;
  t.appends <- t.appends + 1;
  t.appended_bytes <- t.appended_bytes + len + 8;
  lsn

let append t rec_ =
  Buffer.clear t.scratch;
  encode_record_into t.scratch rec_;
  let data = Buffer.contents t.scratch in
  let lsn = frame t data 0 (String.length data) in
  Meter.tick_c c_wal_append;
  lsn

let append_batch t recs =
  (* One scratch encode and one [Buffer.contents] copy for the whole
     transaction; each record still gets its own frame, so the byte stream
     (and every reader) is identical to per-record [append]s. *)
  Buffer.clear t.scratch;
  let spans =
    List.map
      (fun rec_ ->
        let off = Buffer.length t.scratch in
        encode_record_into t.scratch rec_;
        (off, Buffer.length t.scratch - off))
      recs
  in
  let data = Buffer.contents t.scratch in
  let lsns = List.map (fun (off, len) -> frame t data off len) spans in
  let n = List.length lsns in
  if n > 0 then Meter.tick_cn c_wal_append n;
  lsns

let fsync t =
  (if Buffer.length t.pending > 0 then
     match t.lie_notify with
     | Some notify ->
       (* lying fsync: ack the write but silently drop the bytes.  A
          zero gap of the same length keeps later LSNs honest; the gap
          surfaces as mid-log corruption when anything re-reads it. *)
       let lsn = durable_end t in
       let len = Buffer.length t.pending in
       t.lie_notify <- None;
       Buffer.add_string t.durable (String.make len '\000');
       Buffer.clear t.pending;
       t.lied_bytes <- t.lied_bytes + len;
       notify ~lsn ~len
     | None ->
       Buffer.add_buffer t.durable t.pending;
       Buffer.clear t.pending);
  t.fsyncs <- t.fsyncs + 1;
  Meter.tick_c c_wal_fsync

let lose_tail t = Buffer.clear t.pending

let truncate_to t ~lsn =
  check_range t "Wal.truncate_to" lsn;
  if lsn > t.base_lsn then begin
    let drop = lsn - t.base_lsn in
    let keep = Buffer.sub t.durable drop (Buffer.length t.durable - drop) in
    Buffer.clear t.durable;
    Buffer.add_string t.durable keep;
    t.base_lsn <- lsn;
    t.truncations <- t.truncations + 1
  end

type read_result = {
  records : (int * record) list;
  torn_at : int option;
  corrupt_at : int option;
}

type verdict = Clean | Torn_at of int | Corrupt_at of int

(* A frame that fails is a torn write when it is the final one (it ends
   at or past the end of the bytes) and corruption otherwise. *)
let bad ~last lsn = if last then Torn_at lsn else Corrupt_at lsn

(* Walk the framed entries of [data] from offset [pos] to its end, in
   place: the byte at offset [p] has LSN [base + p].  Each frame's
   payload is handed to [f lsn r] through one reader re-aimed at it; a
   payload that fails its CRC, or that [f] rejects with
   [Codec.Decode_error], ends the walk.  [data] may be a slice that
   stops short of the log's end, [total] bytes from its start (default:
   none): only the log's end makes a frame the last, and a frame the
   slice cuts short looks torn — telling the two apart is the caller's
   job. *)
let walk ~check ~base ?total data pos f =
  let total = match total with Some m -> m | None -> String.length data in
  let r = Codec.reader ~check data in
  let rec go pos =
    let n = String.length data in
    if pos >= n then Clean
    else if n - pos < 8 then
      (* a header that never finished writing: torn tail *)
      Torn_at (base + pos)
    else begin
      Codec.seek r ~pos ~len:8;
      let len = Codec.get_u32 r in
      let crc = Codec.get_u32 r in
      if n - pos - 8 < len then
        (* payload cut short: torn tail *)
        Torn_at (base + pos)
      else begin
        let fin = pos + 8 + len in
        if Codec.crc32_sub 0 data (pos + 8) len <> crc then
          bad ~last:(fin >= total) (base + pos)
        else begin
          Codec.seek r ~pos:(pos + 8) ~len;
          match f (base + pos) r with
          | () -> go fin
          | exception Codec.Decode_error _ ->
            bad ~last:(fin >= total) (base + pos)
        end
      end
    end
  in
  go pos

(* The verdict alone: the record grammar runs on a checking reader, so
   nothing is built. *)
let check_from ~base ?total data pos =
  walk ~check:true ~base ?total data pos (fun _ r -> ignore (decode_record r))

(* Scan framed entries in [data], whose first byte has LSN [base]. *)
let scan ~base data =
  let acc = ref [] in
  let verdict =
    walk ~check:false ~base data 0 (fun lsn r ->
        acc := (lsn, decode_record r) :: !acc)
  in
  let records = List.rev !acc in
  match verdict with
  | Clean -> { records; torn_at = None; corrupt_at = None }
  | Torn_at l -> { records; torn_at = Some l; corrupt_at = None }
  | Corrupt_at l -> { records; torn_at = None; corrupt_at = Some l }

let read t = scan ~base:t.base_lsn (Buffer.contents t.durable)
let scan_bytes ~base data = scan ~base data
let check_bytes ~base data = check_from ~base data 0

let read_from t ~lsn =
  check_range t "Wal.read_from" lsn;
  let off = lsn - t.base_lsn in
  scan ~base:lsn (Buffer.sub t.durable off (Buffer.length t.durable - off))

let durable_slice t ~from_lsn =
  check_range t "Wal.durable_slice" from_lsn;
  let off = from_lsn - t.base_lsn in
  Buffer.sub t.durable off (Buffer.length t.durable - off)

let install_bytes t s = Buffer.add_string t.durable s

(* ------------------------------------------------------------------ *)
(* Media faults and salvage.  [flip_byte] models at-rest bit rot;
   [next_valid_lsn]/[verify] find the exact corrupt LSN ranges by
   re-synchronizing on the first offset from which the frame chain
   parses cleanly to the end of the log; [splice] overwrites a corrupt
   range with clean bytes fetched from a replica; [drop_from]
   quarantines an unsalvageable tail. *)

let flip_byte t ~lsn =
  check_range ~len:1 t "Wal.flip_byte" lsn;
  let b = Buffer.to_bytes t.durable in
  let off = lsn - t.base_lsn in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  Buffer.clear t.durable;
  Buffer.add_bytes t.durable b

(* The first LSN strictly after [after] from which the frame chain of
   [data] (one copy of the durable log, first byte at LSN [base]) parses
   a frame right there and stays clean to the end of the log (a torn
   tail is fine); the end of the log if there is none.  Every probe is a
   verdict-only walk in place. *)
let resync ~base data ~after =
  let dend = base + String.length data in
  let rec go lsn =
    if lsn >= dend then dend
    else
      match check_from ~base data (lsn - base) with
      | Clean -> lsn
      | Torn_at l when l <> lsn -> lsn
      | Torn_at _ | Corrupt_at _ -> go (lsn + 1)
  in
  go (after + 1)

let next_valid_lsn t ~after =
  resync ~base:t.base_lsn (Buffer.contents t.durable) ~after

(* Offset just past the frame whose header starts at offset [off] of
   the durable log, as its length field claims; -1 unless the frame is
   whole in the log. *)
let frame_end t off =
  let n = Buffer.length t.durable in
  if n - off < 8 then -1
  else begin
    let byte i = Char.code (Buffer.nth t.durable (off + i)) in
    let len =
      byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)
    in
    if len > n - off - 8 then -1 else off + 8 + len
  end

let verify_step t ~from ~budget =
  let base = t.base_lsn and n = Buffer.length t.durable in
  let dend = base + n in
  let rec go from left acc =
    if from >= dend then (max from dend, List.rev acc)
    else if left <= 0 then (from, List.rev acc)
    else begin
      (* only the slice is copied: [left] bytes, stretched so the first
         frame is whole — every step makes progress *)
      let off = from - base in
      let len = max (min left (n - off)) (frame_end t off - off) in
      let data = Buffer.sub t.durable off len in
      match check_from ~base:from ~total:(n - off) data 0 with
      | Clean -> (from + len, List.rev acc)
      | Torn_at l when frame_end t (l - base) > off + len ->
        (* a frame whole in the log that the slice cut short *)
        (l, List.rev acc)
      | (Corrupt_at l | Torn_at l) as v ->
        (* resynchronizing probes the chain to the end of the log *)
        let r =
          if off + len = n then resync ~base:from data ~after:l
          else resync ~base (Buffer.contents t.durable) ~after:l
        in
        (match v with
        | Torn_at _ when r >= dend ->
          (* A frame that parses past the end of the log looks torn — but
             a genuine torn write can only be the final append.  If the
             chain re-synchronizes at a valid frame strictly before the
             end, the "torn" frame is really rot (e.g. a flipped length
             header that swallowed the rest of the log). *)
          (dend, List.rev acc)
        | _ -> go r (left - (r - from)) ((l, r) :: acc))
    end
  in
  go (max from base) budget []

let verify t = snd (verify_step t ~from:t.base_lsn ~budget:max_int)

let splice t ~lsn ~bytes =
  let len = String.length bytes in
  check_range ~len t "Wal.splice" lsn;
  let b = Buffer.to_bytes t.durable in
  Bytes.blit_string bytes 0 b (lsn - t.base_lsn) len;
  Buffer.clear t.durable;
  Buffer.add_bytes t.durable b

let drop_from t ~lsn =
  check_range t "Wal.drop_from" lsn;
  let keep = lsn - t.base_lsn in
  let dropped = Buffer.length t.durable - keep in
  if dropped > 0 then begin
    let s = Buffer.sub t.durable 0 keep in
    Buffer.clear t.durable;
    Buffer.add_string t.durable s
  end;
  dropped

(* Test hooks: the recovery tests simulate torn writes and media
   corruption by mangling the durable bytes directly. *)
let durable_contents t = Buffer.contents t.durable

let set_durable_for_test t s =
  Buffer.clear t.durable;
  Buffer.add_string t.durable s
