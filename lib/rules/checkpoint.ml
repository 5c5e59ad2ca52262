open Strip_relational
open Strip_txn

type table_snap = {
  tname : string;
  cols : (string * Value.ty) list;
  indexes : (string * Index.kind * string list) list;
  rows : Value.t array list;
}

type queue_entry = {
  qfunc : string;
  qkey : Value.t list;
  qrelease_time : float;
  qcreated_at : float;
  qbound : Wal.bound_rows;
}

type t = {
  taken_at : float;
  wal_lsn : int;
  tables : table_snap list;  (* catalog creation order *)
  views : (string * string) list;  (* (name, sql), declaration order *)
  queue : queue_entry list;  (* task-id order *)
}

let snap_table ~rows tb =
  let schema = Table.schema tb in
  let cols =
    List.map (fun (c : Schema.column) -> (c.Schema.cname, c.Schema.cty))
      (Schema.columns schema)
  in
  let indexes =
    List.map
      (fun ix ->
        let names =
          Array.to_list
            (Array.map
               (fun pos -> (Schema.col schema pos).Schema.cname)
               (Index.key_cols ix))
        in
        (Index.name ix, Index.kind ix, names))
      (Table.indexes tb)
  in
  { tname = Table.name tb; cols; indexes; rows = rows tb }

let snap_queue reg =
  List.map
    (fun ((func, key), (task : Task.t)) ->
      {
        qfunc = func;
        qkey = key;
        qrelease_time = task.Task.release_time;
        qcreated_at = task.Task.created_at;
        qbound =
          List.map
            (fun (name, tmp) -> (name, Temp_table.to_rows tmp))
            task.Task.bound;
      })
    (Unique.entries reg)

let capture ~cat ~views ~reg ~now ~wal_lsn =
  {
    taken_at = now;
    wal_lsn;
    tables = List.map (snap_table ~rows:Table.to_rows) (Catalog.tables cat);
    views;
    queue = snap_queue reg;
  }

let queue_rows queue =
  List.fold_left
    (fun acc q ->
      List.fold_left (fun acc (_, rows) -> acc + List.length rows) acc q.qbound)
    0 queue

let total_rows t =
  List.fold_left (fun acc ts -> acc + List.length ts.rows) 0 t.tables
  + queue_rows t.queue

(* Rebuild tables into a fresh catalog: raw inserts (no locking or
   logging — recovery runs outside any transaction), indexes built after
   the rows so each is populated in one pass. *)
let restore_tables t cat =
  List.iter
    (fun ts ->
      let tb =
        Catalog.create_table cat ~name:ts.tname ~schema:(Schema.of_list ts.cols)
      in
      List.iter (fun row -> ignore (Table.insert tb row)) ts.rows;
      List.iter
        (fun (name, kind, cols) -> ignore (Table.create_index tb ~name ~kind ~cols))
        ts.indexes)
    t.tables

(* ------------------------------------------------------------------ *)
(* Serialization.                                                       *)

let put_kind b = function
  | Index.Hash -> Codec.put_u8 b 0
  | Index.Ordered -> Codec.put_u8 b 1

let get_kind r =
  match Codec.get_u8 r with
  | 0 -> Index.Hash
  | 1 -> Index.Ordered
  | tag -> raise (Codec.Decode_error (Printf.sprintf "index kind %d" tag))

let put_table_snap b ts =
  Codec.put_string b ts.tname;
  Codec.put_list b
    (fun b (name, ty) ->
      Codec.put_string b name;
      Codec.put_ty b ty)
    ts.cols;
  Codec.put_list b
    (fun b (name, kind, cols) ->
      Codec.put_string b name;
      put_kind b kind;
      Codec.put_list b Codec.put_string cols)
    ts.indexes;
  Codec.put_list b Codec.put_values ts.rows

let get_table_snap r =
  let tname = Codec.get_string r in
  let cols =
    Codec.get_list r (fun r ->
        let name = Codec.get_string r in
        let ty = Codec.get_ty r in
        (name, ty))
  in
  let indexes =
    Codec.get_list r (fun r ->
        let name = Codec.get_string r in
        let kind = get_kind r in
        let cols = Codec.get_list r Codec.get_string in
        (name, kind, cols))
  in
  let rows = Codec.get_list r Codec.get_values in
  { tname; cols; indexes; rows }

let put_queue_entry b q =
  Codec.put_string b q.qfunc;
  Codec.put_list b Codec.put_value q.qkey;
  Codec.put_float b q.qrelease_time;
  Codec.put_float b q.qcreated_at;
  Codec.put_list b
    (fun b (name, rows) ->
      Codec.put_string b name;
      Codec.put_list b Codec.put_values rows)
    q.qbound

let get_queue_entry r =
  let qfunc = Codec.get_string r in
  let qkey = Codec.get_list r Codec.get_value in
  let qrelease_time = Codec.get_float r in
  let qcreated_at = Codec.get_float r in
  let qbound =
    Codec.get_list r (fun r ->
        let name = Codec.get_string r in
        let rows = Codec.get_list r Codec.get_values in
        (name, rows))
  in
  { qfunc; qkey; qrelease_time; qcreated_at; qbound }

(* One table's encoding, as it sits in the image's table list. *)
let segment b ts =
  Buffer.clear b;
  put_table_snap b ts;
  Buffer.contents b

(* An image is [taken_at][wal_lsn][table count][segments][views][queue]:
   a small head, one segment per table and a tail, each encoded on its
   own so an image can be kept (and CRC'd) as its parts. *)
let head b ~taken_at ~wal_lsn ~ntables =
  Buffer.clear b;
  Codec.put_float b taken_at;
  Codec.put_int b wal_lsn;
  Codec.put_u32 b ntables;
  Buffer.contents b

let tail b ~views ~queue =
  Buffer.clear b;
  Codec.put_list b
    (fun b (name, sql) ->
      Codec.put_string b name;
      Codec.put_string b sql)
    views;
  Codec.put_list b put_queue_entry queue;
  Buffer.contents b

let encode t =
  let b = Buffer.create 65536 in
  let h =
    head b ~taken_at:t.taken_at ~wal_lsn:t.wal_lsn ~ntables:(List.length t.tables)
  in
  let segments = List.map (segment b) t.tables in
  String.concat "" ((h :: segments) @ [ tail b ~views:t.views ~queue:t.queue ])

let decode s =
  let r = Codec.reader s in
  let taken_at = Codec.get_float r in
  let wal_lsn = Codec.get_int r in
  let tables = Codec.get_list r get_table_snap in
  let views =
    Codec.get_list r (fun r ->
        let name = Codec.get_string r in
        let sql = Codec.get_string r in
        (name, sql))
  in
  let queue = Codec.get_list r get_queue_entry in
  if Codec.remaining r > 0 then
    raise (Codec.Decode_error "trailing bytes in checkpoint image");
  { taken_at; wal_lsn; tables; views; queue }

(* ------------------------------------------------------------------ *)
(* Incremental images.                                                  *)

type entry = {
  table : Table.t;
  version : int;
  seg : Durable.part;
  nrows : int;
}

type cache = {
  mutable entries : entry list;  (* the tables of the previous image *)
  scratch : Buffer.t;
}

let create_cache () = { entries = []; scratch = Buffer.create 4096 }

(* [capture] hands out copies of the rows; an image encodes them at once,
   so it reads the live records' value arrays in place (record values are
   never mutated). *)
let live_rows tb =
  let acc = ref [] in
  Table.iter tb (fun r -> acc := r.Record.values :: !acc);
  List.rev !acc

let image c ~cat ~views ~reg ~now ~wal_lsn =
  let entry tb =
    match List.find_opt (fun e -> e.table == tb) c.entries with
    | Some e when e.version = Table.version tb -> e
    | _ ->
      let ts = snap_table ~rows:live_rows tb in
      {
        table = tb;
        version = Table.version tb;
        seg = Durable.part (segment c.scratch ts);
        nrows = List.length ts.rows;
      }
  in
  let entries = List.map entry (Catalog.tables cat) in
  c.entries <- entries;
  let queue = snap_queue reg in
  let h = head c.scratch ~taken_at:now ~wal_lsn ~ntables:(List.length entries) in
  let parts =
    (Durable.part h :: List.map (fun e -> e.seg) entries)
    @ [ Durable.part (tail c.scratch ~views ~queue) ]
  in
  let rows = List.fold_left (fun n e -> n + e.nrows) (queue_rows queue) entries in
  (parts, rows)
