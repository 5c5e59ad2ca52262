type change =
  | Inserted of Strip_relational.Record.t
  | Deleted of Strip_relational.Record.t
  | Updated of {
      old_rec : Strip_relational.Record.t;
      new_rec : Strip_relational.Record.t;
    }

type entry = {
  table : string;
  change : change;
  execute_order : int;
}

type t = {
  mutable rev_entries : entry list;
  mutable next : int;
  mutable tables : string list;  (* first-touch order *)
}

let create () = { rev_entries = []; next = 1; tables = [] }

let rec mem_table table = function
  | [] -> false
  | x :: rest -> String.equal x table || mem_table table rest

let push t table change =
  t.rev_entries <- { table; change; execute_order = t.next } :: t.rev_entries;
  t.next <- t.next + 1;
  (* a transaction touches few tables, and each is appended once *)
  if not (mem_table table t.tables) then t.tables <- t.tables @ [ table ]

let log_insert t ~table r = push t table (Inserted r)
let log_delete t ~table r = push t table (Deleted r)

let log_update t ~table ~old_rec ~new_rec =
  push t table (Updated { old_rec; new_rec })

let entries t = List.rev t.rev_entries
let entries_rev t = t.rev_entries
let length t = t.next - 1

let tables_touched t = t.tables
