open Strip_relational
open Strip_core

let c_ugroup_row = Meter.counter "ugroup_row"
type variant = Non_unique | Unique_coarse | Unique_on_symbol | Unique_on_comp

let variant_name = function
  | Non_unique -> "non-unique"
  | Unique_coarse -> "unique"
  | Unique_on_symbol -> "unique on symbol"
  | Unique_on_comp -> "unique on comp"

let all_variants = [ Non_unique; Unique_coarse; Unique_on_symbol; Unique_on_comp ]

let condition =
  "  select comp, comps_list.symbol as symbol, weight,\n\
  \         old.price as old_price, new.price as new_price\n\
  \  from comps_list, new, old\n\
  \  where comps_list.symbol = new.symbol\n\
  \    and new.execute_order = old.execute_order\n\
  \  bind as matches\n"

let func_name = function
  | Non_unique -> "compute_comps1"
  | Unique_coarse -> "compute_comps2"
  | Unique_on_symbol -> "compute_comps2s"
  | Unique_on_comp -> "compute_comps3"

let rule_name = function
  | Non_unique -> "do_comps1"
  | Unique_coarse -> "do_comps2"
  | Unique_on_symbol -> "do_comps2s"
  | Unique_on_comp -> "do_comps3"

let rule_text variant ~delay =
  let unique_clause =
    match variant with
    | Non_unique -> ""
    | Unique_coarse -> "  unique\n"
    | Unique_on_symbol -> "  unique on symbol\n"
    | Unique_on_comp -> "  unique on comp\n"
  in
  let after_clause =
    match variant with
    | Non_unique -> ""
    | _ -> Printf.sprintf "  after %g seconds\n" delay
  in
  Printf.sprintf
    "create rule %s on stocks\nwhen updated price\nif\n%sthen\n  execute %s\n%s%s"
    (rule_name variant) condition (func_name variant) unique_clause
    after_clause

(* matches columns *)
let c_comp = 0
let c_weight = 2
let c_old = 3
let c_new = 4

let apply_diff (h : Pta_tables.handles) txn comp diff =
  ignore
    (Db_ops.update_by_key txn h.Pta_tables.comp_prices h.Pta_tables.comp_by_name
       [ comp ]
       (fun values ->
         values.(1) <- Value.add values.(1) (Value.Float diff);
         values))

(* The three maintenance bodies below are parameterized on [emit] (what
   to do with one composite's total change) so the sharded path can route
   remote composites into cross-shard partials while the single-primary
   path keeps writing locally — same grouping, same arithmetic. *)

(* Figure 3: row-at-a-time incremental maintenance. *)
let compute_comps1_emit emit (ctx : Rule_manager.action_ctx) =
  Db_ops.iter_bound ctx "matches" (fun row ->
      let diff =
        Strip_finance.Composite.delta
          ~weight:(Value.to_float row.(c_weight))
          ~old_price:(Value.to_float row.(c_old))
          ~new_price:(Value.to_float row.(c_new))
      in
      emit ctx row.(c_comp) diff)

(* Figure 6: group the batch by composite in user code, then apply each
   composite's total change once. *)
let compute_comps2_emit emit (ctx : Rule_manager.action_ctx) =
  let diffs : (Value.t, float) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Db_ops.iter_bound ctx "matches" (fun row ->
      Meter.tick_c c_ugroup_row;
      let diff =
        Strip_finance.Composite.delta
          ~weight:(Value.to_float row.(c_weight))
          ~old_price:(Value.to_float row.(c_old))
          ~new_price:(Value.to_float row.(c_new))
      in
      match Hashtbl.find_opt diffs row.(c_comp) with
      | Some d -> Hashtbl.replace diffs row.(c_comp) (d +. diff)
      | None ->
        Hashtbl.add diffs row.(c_comp) diff;
        order := row.(c_comp) :: !order);
  List.iter
    (fun comp -> emit ctx comp (Hashtbl.find diffs comp))
    (List.rev !order)

(* Figure 7: the batch holds a single composite's changes; fold them in one
   pass and write once. *)
let compute_comps3_emit emit (ctx : Rule_manager.action_ctx) =
  let comp = ref Value.Null and total = ref 0.0 in
  Db_ops.iter_bound ctx "matches" (fun row ->
      comp := row.(c_comp);
      total :=
        !total
        +. Strip_finance.Composite.delta
             ~weight:(Value.to_float row.(c_weight))
             ~old_price:(Value.to_float row.(c_old))
             ~new_price:(Value.to_float row.(c_new)));
  if not (Value.is_null !comp) then emit ctx !comp !total

let local_emit h (ctx : Rule_manager.action_ctx) comp diff =
  apply_diff h ctx.Rule_manager.txn comp diff

let body_of variant =
  match variant with
  | Non_unique -> compute_comps1_emit
  | Unique_coarse | Unique_on_symbol -> compute_comps2_emit
  | Unique_on_comp -> compute_comps3_emit

let install db h variant ~delay =
  Strip_db.register_function db (func_name variant) (body_of variant (local_emit h));
  Strip_db.create_rule db (rule_text variant ~delay)

(* Sharded install: composites this shard owns update locally exactly as
   above; the rest become weighted partial deltas buffered in the rule
   manager, to be stamped/logged/shipped by the enclosing commit (DBSP
   linearity: the composite total is the sum of per-shard
   contributions). *)
let install_routed db h ~sid ~owner variant ~delay =
  let mgr = Strip_db.rules db in
  let emit (ctx : Rule_manager.action_ctx) comp diff =
    let dst = owner (Value.to_string comp) in
    if dst = sid then apply_diff h ctx.Rule_manager.txn comp diff
    else Rule_manager.emit_partial mgr ~dst ~key:[ comp ] ~delta:diff
  in
  Strip_db.register_function db (func_name variant) (body_of variant emit);
  Strip_db.create_rule db (rule_text variant ~delay)

(* Owner side of the protocol: fold a merged cross-shard delta into the
   composite row, same access path as a local apply. *)
let apply_partial h txn ~key ~delta =
  match key with
  | [ comp ] -> apply_diff h txn comp delta
  | _ -> invalid_arg "Comp_rules.apply_partial: key must be [comp]"

(* Cross-shard ground truth: stock prices live scattered across shards and
   so do membership rows, so both scans union over the whole array before
   totalling.  Sorted output, directly comparable to
   [maintained_sharded]. *)
let recompute_from_scratch_sharded (hs : Pta_tables.handles array) =
  let was = !Meter.enabled in
  Meter.enabled := false;
  Fun.protect
    ~finally:(fun () -> Meter.enabled := was)
    (fun () ->
      let price_of = Hashtbl.create 8192 in
      Array.iter
        (fun (h : Pta_tables.handles) ->
          Table.iter h.Pta_tables.stocks (fun r ->
              Hashtbl.replace price_of (Record.value r 0)
                (Value.to_float (Record.value r 1))))
        hs;
      let totals = Hashtbl.create 512 in
      let order = ref [] in
      Array.iter
        (fun (h : Pta_tables.handles) ->
          Table.iter h.Pta_tables.comps_list (fun r ->
              let comp = Value.to_string (Record.value r 0) in
              let sym = Record.value r 1 in
              let w = Value.to_float (Record.value r 2) in
              let p = Hashtbl.find price_of sym in
              match Hashtbl.find_opt totals comp with
              | Some t -> Hashtbl.replace totals comp (t +. (w *. p))
              | None ->
                Hashtbl.add totals comp (w *. p);
                order := comp :: !order))
        hs;
      List.rev_map (fun comp -> (comp, Hashtbl.find totals comp)) !order
      |> List.sort compare)

let maintained_sharded (hs : Pta_tables.handles array) =
  let acc = ref [] in
  Array.iter
    (fun (h : Pta_tables.handles) ->
      Table.iter h.Pta_tables.comp_prices (fun r ->
          acc :=
            (Value.to_string (Record.value r 0), Value.to_float (Record.value r 1))
            :: !acc))
    hs;
  List.sort compare !acc

let recompute_from_scratch h = recompute_from_scratch_sharded [| h |]
let maintained h = maintained_sharded [| h |]
