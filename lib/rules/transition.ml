open Strip_relational
open Strip_txn

type t = {
  inserted : Temp_table.t;
  deleted : Temp_table.t;
  new_ : Temp_table.t;
  old : Temp_table.t;
}

let execute_order_column = "execute_order"

let transition_schema base =
  Schema.make
    (Schema.columns (Schema.unqualify base)
    @ [ Schema.column execute_order_column Value.TInt ])

(* Every commit against the same base table builds four transition tables
   with the same derived schema and static map.  Cache them per base
   schema (physical identity — schemas are created once per table) as one
   validated layout, so the per-commit cost is four arenas sized to their
   entries, and so every transition table over one base shares a
   physically-identical schema, which lets a prepared condition's scans
   revalidate by pointer.  (The layout's source row would be a log
   entry's record and its execute_order; [build] appends directly.) *)
let layouts : (Schema.t * Temp_table.layout) list ref = ref []

let layout_for base =
  match List.assq_opt base !layouts with
  | Some l -> l
  | None ->
    let base_arity = Schema.arity base in
    let prov =
      (* base columns point into the source record; execute_order is
         materialized *)
      Array.init (base_arity + 1) (fun i ->
          if i < base_arity then Temp_table.From_record (0, i)
          else Temp_table.Computed 0)
    in
    let l =
      Temp_table.layout ~schema:(transition_schema base) ~prov ~slot_of:[| 0 |]
        ~cell_of:[| 0 |]
    in
    layouts := (base, l) :: !layouts;
    l

let build ~schema ~table entries =
  ignore table;
  let l = layout_for schema in
  let ni = ref 0 and nd = ref 0 and nu = ref 0 in
  List.iter
    (fun (e : Tlog.entry) ->
      match e.change with
      | Tlog.Inserted _ -> incr ni
      | Tlog.Deleted _ -> incr nd
      | Tlog.Updated _ -> incr nu)
    entries;
  (* an empty table gets no arena *)
  let make_table name rows = Temp_table.of_layout ~name ~rows l in
  let inserted = make_table "inserted" !ni in
  let deleted = make_table "deleted" !nd in
  let new_ = make_table "new" !nu in
  let old = make_table "old" !nu in
  List.iter
    (fun (e : Tlog.entry) ->
      let seq = [| Value.Int e.execute_order |] in
      match e.change with
      | Tlog.Inserted r -> Temp_table.append inserted ~srcs:[| r |] ~mats:seq
      | Tlog.Deleted r -> Temp_table.append deleted ~srcs:[| r |] ~mats:seq
      | Tlog.Updated { old_rec; new_rec } ->
        Temp_table.append old ~srcs:[| old_rec |] ~mats:seq;
        Temp_table.append new_ ~srcs:[| new_rec |] ~mats:seq)
    entries;
  { inserted; deleted; new_; old }

let env t =
  [
    ("inserted", t.inserted);
    ("deleted", t.deleted);
    ("new", t.new_);
    ("old", t.old);
  ]

let retire t =
  Temp_table.retire t.inserted;
  Temp_table.retire t.deleted;
  Temp_table.retire t.new_;
  Temp_table.retire t.old
