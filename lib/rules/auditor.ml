open Strip_relational
open Strip_txn

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type divergence = {
  view : string;
  key : Value.t;
  expected : Value.t array list;
  actual : Value.t array list;
}

type report = {
  audited : (string * int) list;
  divergences : divergence list;
}

let clean r = r.divergences = []

let value_close ~eps a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Float.abs (x -. y) <= eps *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | Value.Float x, Value.Int y | Value.Int y, Value.Float x ->
    Float.abs (x -. float_of_int y) <= eps
  | _ -> Value.compare a b = 0

let row_close ~eps a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if not (value_close ~eps v b.(i)) then ok := false) a;
  !ok

(* Multiset equality under [row_close]: every expected row claims one
   not-yet-claimed actual row, and nothing is left over. *)
let rows_match ~eps expected actual =
  let rec claim row = function
    | [] -> None
    | r :: rest when row_close ~eps row r -> Some rest
    | r :: rest -> Option.map (fun rem -> r :: rem) (claim row rest)
  in
  let rec go exp act =
    match exp with
    | [] -> act = []
    | row :: rest -> (
      match claim row act with None -> false | Some act' -> go rest act')
  in
  go expected actual

(* Group rows by their first column, preserving first-seen key order. *)
let group_by_key rows =
  let tbl = VH.create 64 in
  let order = ref [] in
  List.iter
    (fun (row : Value.t array) ->
      let key = row.(0) in
      match VH.find_opt tbl key with
      | Some cell -> cell := row :: !cell
      | None ->
        VH.add tbl key (ref [ row ]);
        order := key :: !order)
    rows;
  (tbl, List.rev !order)

let rows_of tbl key =
  match VH.find_opt tbl key with Some cell -> List.rev !cell | None -> []

let audit_view ~eps cat ~name ~ast =
  let plan = Sql_exec.plan_select cat ~env:[] ast in
  let expected = Query.rows (Query.run cat ~env:[] plan) in
  let actual = Table.to_rows (Catalog.table_exn cat name) in
  let etbl, ekeys = group_by_key expected in
  let atbl, akeys = group_by_key actual in
  let extra = List.filter (fun k -> not (VH.mem etbl k)) akeys in
  let divergences =
    List.filter_map
      (fun key ->
        let exp = rows_of etbl key and act = rows_of atbl key in
        if rows_match ~eps exp act then None
        else Some { view = name; key; expected = exp; actual = act })
      (ekeys @ extra)
  in
  (List.length expected, divergences)

let audit ?(eps = 1e-9) ?views db =
  let cat = Strip_db.catalog db in
  let selected =
    match views with
    | None -> Strip_db.view_definitions db
    | Some names ->
      List.filter
        (fun (name, _) -> List.mem name names)
        (Strip_db.view_definitions db)
  in
  let audited, divergences =
    List.fold_left
      (fun (audited, divs) (name, ast) ->
        let n, d = audit_view ~eps cat ~name ~ast in
        ((name, n) :: audited, divs @ d))
      ([], []) selected
  in
  { audited = List.rev audited; divergences }

(* ------------------------------------------------------------------ *)
(* Repair.                                                              *)

let delete_key txn tb key =
  let hooks = Transaction.hooks txn in
  let schema = Table.schema tb in
  let c0 = (Schema.col schema 0).Schema.cname in
  let cursor =
    match Table.index_on tb [ c0 ] with
    | Some ix -> Table.open_index_cursor tb ix [ key ]
    | None -> Table.open_cursor tb
  in
  let rec loop () =
    match Table.fetch cursor with
    | None -> ()
    | Some r ->
      if Value.equal r.Record.values.(0) key then begin
        hooks.Sql_exec.lock_record tb r Sql_exec.Exclusive;
        Table.cursor_delete cursor;
        hooks.Sql_exec.on_delete tb r
      end;
      loop ()
  in
  loop ();
  Table.close_cursor cursor

let repair_one txn cat d =
  let tb = Catalog.table_exn cat d.view in
  let hooks = Transaction.hooks txn in
  hooks.Sql_exec.lock_table tb Sql_exec.Exclusive;
  delete_key txn tb d.key;
  List.iter
    (fun row ->
      let r = Table.insert tb (Array.copy row) in
      hooks.Sql_exec.on_insert tb r)
    d.expected

let enqueue_repairs db report =
  let cat = Strip_db.catalog db in
  let at = Strip_db.now db in
  List.iter
    (fun d ->
      Strip_db.submit_update db ~at ~label:"audit_repair" (fun txn ->
          repair_one txn cat d))
    report.divergences;
  let n = List.length report.divergences in
  Strip_sim.Stats.add_recovery_work (Strip_db.stats db) Strip_sim.Stats.Repairs n;
  n
