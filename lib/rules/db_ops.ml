open Strip_relational
open Strip_txn

let c_close_cursor = Meter.counter "close_cursor"
let c_fetch_cursor = Meter.counter "fetch_cursor"
let c_open_cursor = Meter.counter "open_cursor"
type lock_error = exn

(* Top-level rather than a local closure: this runs once per row write. *)
let rec update_rows (hooks : Sql_exec.hooks) tb cursor f n =
  match Table.fetch cursor with
  | None -> n
  | Some r ->
    hooks.lock_record tb r Sql_exec.Exclusive;
    let values = f (Array.copy r.Record.values) in
    let r' = Table.cursor_update cursor values in
    hooks.on_update tb ~old_rec:r ~new_rec:r';
    update_rows hooks tb cursor f (n + 1)

let update_by_key txn tb idx key f =
  let hooks = Transaction.hooks txn in
  let cursor = Table.open_index_cursor tb idx key in
  let n = update_rows hooks tb cursor f 0 in
  Table.close_cursor cursor;
  n

let lookup_one txn tb idx key =
  let hooks = Transaction.hooks txn in
  let cursor = Table.open_index_cursor tb idx key in
  let result =
    match Table.fetch cursor with
    | None -> None
    | Some r ->
      hooks.Sql_exec.lock_record tb r Sql_exec.Shared;
      Some (Array.copy r.Record.values)
  in
  Table.close_cursor cursor;
  result

let update_stock_price txn ~stocks ~by_symbol ~symbol ~price =
  let n =
    update_by_key txn stocks by_symbol
      [ Value.Str symbol ]
      (fun values ->
        values.(1) <- Value.Float price;
        values)
  in
  if n = 0 then
    invalid_arg (Printf.sprintf "update_stock_price: unknown symbol %s" symbol)

let bound_table (ctx : Rule_manager.action_ctx) name =
  match List.assoc_opt name ctx.task.Task.bound with
  | Some tmp -> tmp
  | None -> raise Not_found

let iter_bound ctx name f =
  let tmp = bound_table ctx name in
  Meter.tick_c c_open_cursor;
  Temp_table.iter tmp (fun row ->
      Meter.tick_c c_fetch_cursor;
      f (Temp_table.row_values tmp row));
  Meter.tick_c c_close_cursor
