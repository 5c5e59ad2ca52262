let c_close_cursor = Meter.counter "close_cursor"
let c_delete_cursor = Meter.counter "delete_cursor"
let c_delete_record = Meter.counter "delete_record"
let c_fetch_cursor = Meter.counter "fetch_cursor"
let c_insert_record = Meter.counter "insert_record"
let c_open_cursor = Meter.counter "open_cursor"
let c_update_cursor = Meter.counter "update_cursor"
let c_update_record = Meter.counter "update_record"

(* A node is a row's list position.  It outlives the row's versions: an
   update stores the new version in [record] and leaves the links alone. *)
type node = {
  mutable record : Record.t;
  mutable prev : node option;
  mutable next : node option;
}

(* Record bases are dense positive ints, so they hash as themselves. *)
module BaseTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type t = {
  tname : string;
  tschema : Schema.t;
  mutable first : node option;
  mutable last : node option;
  nodes : node BaseTbl.t;  (* Record.base -> node, for O(1) unlink *)
  mutable tindexes : Index.t list;
  mutable ixgen : int;  (* bumped whenever the index list changes *)
  mutable version : int;  (* bumped by every row or index change *)
  mutable count : int;
}

(* A full-scan cursor walks [node]; an index or range cursor walks [recs]
   and never has a [node]. *)
type cursor = {
  table : t;
  mutable node : node option;
  mutable recs : Record.t list;
  mutable current : Record.t option;
  mutable closed : bool;
}

let create ~name ~schema =
  {
    tname = name;
    tschema = schema;
    first = None;
    last = None;
    nodes = BaseTbl.create 64;
    tindexes = [];
    ixgen = 0;
    version = 0;
    count = 0;
  }

let name t = t.tname
let schema t = t.tschema
let cardinal t = t.count

let iter t f =
  let rec loop = function
    | None -> ()
    | Some n ->
      let next = n.next in
      f n.record;
      loop next
  in
  loop t.first

let create_index t ~name ~kind ~cols =
  if List.exists (fun i -> Index.name i = name) t.tindexes then
    invalid_arg (Printf.sprintf "Table.create_index: duplicate index %s" name);
  let positions =
    List.map (fun c -> Schema.find_exn t.tschema c) cols |> Array.of_list
  in
  let idx = Index.create ~size_hint:t.count ~name ~kind ~cols:positions () in
  iter t (fun r -> Index.add idx r);
  t.tindexes <- t.tindexes @ [ idx ];
  t.ixgen <- t.ixgen + 1;
  t.version <- t.version + 1;
  idx

let find_index t name =
  List.find_opt (fun i -> Index.name i = name) t.tindexes

let index_on t cols =
  let want =
    List.map (fun c -> Schema.find_exn t.tschema c) cols |> Array.of_list
  in
  List.find_opt (fun i -> Index.key_cols i = want) t.tindexes

let indexes t = t.tindexes
let index_gen t = t.ixgen
let version t = t.version

let check_row t values =
  match Schema.validate_row t.tschema values with
  | Ok () -> ()
  | Error msg ->
    invalid_arg (Printf.sprintf "table %s: %s" t.tname msg)

let link_last t node =
  (match t.last with
  | None ->
    t.first <- Some node;
    t.last <- Some node
  | Some l ->
    l.next <- Some node;
    node.prev <- Some l;
    t.last <- Some node);
  (* a fresh record's base is its own, new rid, so the new binding cannot
     shadow an existing one *)
  BaseTbl.add t.nodes node.record.Record.base node;
  t.count <- t.count + 1

let unlink t node =
  (match node.prev with
  | None -> t.first <- node.next
  | Some p -> p.next <- node.next);
  (match node.next with
  | None -> t.last <- node.prev
  | Some nx -> nx.prev <- node.prev);
  node.prev <- None;
  node.next <- None;
  BaseTbl.remove t.nodes node.record.Record.base;
  t.count <- t.count - 1

(* The node whose live version is [r] itself: a deleted or superseded
   version of the row is not live, even though its base may still be. *)
let node_of t (r : Record.t) =
  match BaseTbl.find t.nodes r.Record.base with
  | n when n.record == r -> n
  | _ | (exception Not_found) ->
    invalid_arg
      (Printf.sprintf "table %s: record %d is not live here" t.tname
         r.Record.rid)

let insert t values =
  check_row t values;
  Meter.tick_c c_insert_record;
  let r = Record.create values in
  let node = { record = r; prev = None; next = None } in
  link_last t node;
  t.version <- t.version + 1;
  List.iter (fun idx -> Index.add idx r) t.tindexes;
  r

let rec replace_in_indexes ~old r = function
  | [] -> ()
  | idx :: rest ->
    Index.replace idx ~old r;
    replace_in_indexes ~old r rest

let update t old values =
  check_row t values;
  Meter.tick_c c_update_record;
  let node = node_of t old in
  let r = Record.create_version ~base:old.Record.base values in
  node.record <- r;
  t.version <- t.version + 1;
  replace_in_indexes ~old r t.tindexes;
  Record.retire old;
  r

let delete t r =
  Meter.tick_c c_delete_record;
  let node = node_of t r in
  unlink t node;
  t.version <- t.version + 1;
  List.iter (fun idx -> Index.remove idx r) t.tindexes;
  Record.retire r

let open_cursor t =
  Meter.tick_c c_open_cursor;
  { table = t; node = t.first; recs = []; current = None; closed = false }

let records_cursor t recs =
  { table = t; node = None; recs; current = None; closed = false }

let open_index_cursor t idx key =
  Meter.tick_c c_open_cursor;
  records_cursor t (Index.lookup idx key)

let open_range_cursor t idx ?lo ?hi () =
  Meter.tick_c c_open_cursor;
  let acc = ref [] in
  Index.range idx ?lo ?hi (fun r -> acc := r :: !acc);
  records_cursor t (List.rev !acc)

(* [fetch] returns the very option it stores as [current]. *)
let deliver c r =
  Meter.tick_c c_fetch_cursor;
  let cur = Some r in
  c.current <- cur;
  cur

let fetch c =
  if c.closed then invalid_arg "Table.fetch: cursor is closed";
  (* end-of-scan detection is free; only delivered records are metered *)
  match c.node with
  | Some n ->
    c.node <- n.next;
    deliver c n.record
  | None -> (
    match c.recs with
    | r :: rest ->
      c.recs <- rest;
      deliver c r
    | [] ->
      c.current <- None;
      None)

let cursor_update c values =
  if c.closed then invalid_arg "Table.cursor_update: cursor is closed";
  match c.current with
  | None -> invalid_arg "Table.cursor_update: no current record"
  | Some r ->
    Meter.tick_c c_update_cursor;
    let r' = update c.table r values in
    c.current <- Some r';
    r'

let cursor_delete c =
  if c.closed then invalid_arg "Table.cursor_delete: cursor is closed";
  match c.current with
  | None -> invalid_arg "Table.cursor_delete: no current record"
  | Some r ->
    Meter.tick_c c_delete_cursor;
    delete c.table r;
    c.current <- None

let close_cursor c =
  if not c.closed then begin
    Meter.tick_c c_close_cursor;
    c.closed <- true;
    c.current <- None;
    c.node <- None;
    c.recs <- []
  end

let clear t =
  let recs = ref [] in
  iter t (fun r -> recs := r :: !recs);
  List.iter (fun r -> delete t r) !recs

let to_rows t =
  let acc = ref [] in
  iter t (fun r -> acc := Array.copy r.Record.values :: !acc);
  List.rev !acc
