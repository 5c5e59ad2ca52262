open Strip_relational
open Strip_core

let c_dedupe_row = Meter.counter "dedupe_row"
let c_ulast_row = Meter.counter "ulast_row"
type variant = Non_unique | Unique_coarse | Unique_on_symbol | Unique_on_option

let variant_name = function
  | Non_unique -> "non-unique"
  | Unique_coarse -> "unique"
  | Unique_on_symbol -> "unique on symbol"
  | Unique_on_option -> "unique on option_symbol"

let all_variants = [ Non_unique; Unique_coarse; Unique_on_symbol ]

let condition =
  "  select option_symbol, stock_symbol, strike, expiration,\n\
  \         new.price as new_price\n\
  \  from options_list, new\n\
  \  where options_list.stock_symbol = new.symbol\n\
  \  bind as matches\n"

let func_name = function
  | Non_unique -> "compute_options1"
  | Unique_coarse -> "compute_options2"
  | Unique_on_symbol -> "compute_options3"
  | Unique_on_option -> "compute_options4"

let rule_name = function
  | Non_unique -> "do_options1"
  | Unique_coarse -> "do_options2"
  | Unique_on_symbol -> "do_options3"
  | Unique_on_option -> "do_options4"

let rule_text variant ~delay =
  let unique_clause =
    match variant with
    | Non_unique -> ""
    | Unique_coarse -> "  unique\n"
    | Unique_on_symbol -> "  unique on stock_symbol\n"
    | Unique_on_option -> "  unique on option_symbol\n"
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
let c_opt = 0
let c_stock = 1
let c_strike = 2
let c_expiry = 3
let c_price = 4

let stdev_of (h : Pta_tables.handles) txn stock =
  match
    Db_ops.lookup_one txn h.Pta_tables.stock_stdev h.Pta_tables.stdev_by_symbol
      [ stock ]
  with
  | Some values -> Value.to_float values.(1)
  | None -> invalid_arg ("no stdev for stock " ^ Value.to_string stock)

let reprice (h : Pta_tables.handles) txn ~opt ~price ~strike ~expiry ~stdev =
  let theo =
    Strip_finance.Black_scholes.call ~stock_price:price ~strike
      ~rate:Strip_finance.Black_scholes.default_rate ~volatility:stdev
      ~expiry_years:expiry
  in
  ignore
    (Db_ops.update_by_key txn h.Pta_tables.option_prices
       h.Pta_tables.option_by_symbol [ opt ]
       (fun values ->
         values.(1) <- Value.Float theo;
         values))

(* Figure 8: reprice every row.  The paper's pseudo-code re-selects the
   volatility per row; like any compiled implementation we hoist the lookup
   per distinct underlying in the batch (a non-unique batch holds a single
   triggering transaction's changes, so this is one lookup per task). *)
let compute_options1 h (ctx : Rule_manager.action_ctx) =
  let stdevs : (Value.t, float) Hashtbl.t = Hashtbl.create 8 in
  Db_ops.iter_bound ctx "matches" (fun row ->
      let stdev =
        match Hashtbl.find_opt stdevs row.(c_stock) with
        | Some s -> s
        | None ->
          let s = stdev_of h ctx.Rule_manager.txn row.(c_stock) in
          Hashtbl.add stdevs row.(c_stock) s;
          s
      in
      reprice h ctx.Rule_manager.txn ~opt:row.(c_opt)
        ~price:(Value.to_float row.(c_price))
        ~strike:(Value.to_float row.(c_strike))
        ~expiry:(Value.to_float row.(c_expiry))
        ~stdev)

(* Coarse batch: group by option in user code, keep the last price (rows
   arrive in commit order), then reprice each option once. *)
let compute_options2 h (ctx : Rule_manager.action_ctx) =
  let last : (Value.t, Value.t array) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  Db_ops.iter_bound ctx "matches" (fun row ->
      (* keep-last grouping over the whole mixed batch, in user code *)
      Meter.tick_c c_ulast_row;
      if not (Hashtbl.mem last row.(c_opt)) then order := row.(c_opt) :: !order;
      Hashtbl.replace last row.(c_opt) row);
  let stdevs : (Value.t, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun opt ->
      let row = Hashtbl.find last opt in
      let stdev =
        match Hashtbl.find_opt stdevs row.(c_stock) with
        | Some s -> s
        | None ->
          let s = stdev_of h ctx.Rule_manager.txn row.(c_stock) in
          Hashtbl.add stdevs row.(c_stock) s;
          s
      in
      reprice h ctx.Rule_manager.txn ~opt
        ~price:(Value.to_float row.(c_price))
        ~strike:(Value.to_float row.(c_strike))
        ~expiry:(Value.to_float row.(c_expiry))
        ~stdev)
    (List.rev !order)

(* Per-stock batch: the rule system already partitioned by stock_symbol, so
   only a cheap last-value dedupe per option remains, and the volatility is
   fetched once. *)
let compute_options3 h (ctx : Rule_manager.action_ctx) =
  let last : (Value.t, Value.t array) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let stock = ref Value.Null in
  Db_ops.iter_bound ctx "matches" (fun row ->
      Meter.tick_c c_dedupe_row;
      stock := row.(c_stock);
      if not (Hashtbl.mem last row.(c_opt)) then order := row.(c_opt) :: !order;
      Hashtbl.replace last row.(c_opt) row);
  if not (Value.is_null !stock) then begin
    let stdev = stdev_of h ctx.Rule_manager.txn !stock in
    List.iter
      (fun opt ->
        let row = Hashtbl.find last opt in
        reprice h ctx.Rule_manager.txn ~opt
          ~price:(Value.to_float row.(c_price))
          ~strike:(Value.to_float row.(c_strike))
          ~expiry:(Value.to_float row.(c_expiry))
          ~stdev)
      (List.rev !order)
  end

(* Per-option batch: keep the last change only. *)
let compute_options4 h (ctx : Rule_manager.action_ctx) =
  let last = ref None in
  Db_ops.iter_bound ctx "matches" (fun row -> last := Some row);
  match !last with
  | None -> ()
  | Some row ->
    let stdev = stdev_of h ctx.Rule_manager.txn row.(c_stock) in
    reprice h ctx.Rule_manager.txn ~opt:row.(c_opt)
      ~price:(Value.to_float row.(c_price))
      ~strike:(Value.to_float row.(c_strike))
      ~expiry:(Value.to_float row.(c_expiry))
      ~stdev

let install db h variant ~delay =
  let fn =
    match variant with
    | Non_unique -> compute_options1 h
    | Unique_coarse -> compute_options2 h
    | Unique_on_symbol -> compute_options3 h
    | Unique_on_option -> compute_options4 h
  in
  Strip_db.register_function db (func_name variant) fn;
  Strip_db.create_rule db (rule_text variant ~delay)

(* Options are co-partitioned with their stocks, so a union of every
   shard's tables prices each option exactly as its own shard would. *)
let recompute_from_scratch_sharded (hs : Pta_tables.handles array) =
  let was = !Meter.enabled in
  Meter.enabled := false;
  Fun.protect
    ~finally:(fun () -> Meter.enabled := was)
    (fun () ->
      let price_of = Hashtbl.create 8192 and stdev_of = Hashtbl.create 8192 in
      Array.iter
        (fun (h : Pta_tables.handles) ->
          Table.iter h.Pta_tables.stocks (fun r ->
              Hashtbl.replace price_of (Record.value r 0)
                (Value.to_float (Record.value r 1)));
          Table.iter h.Pta_tables.stock_stdev (fun r ->
              Hashtbl.replace stdev_of (Record.value r 0)
                (Value.to_float (Record.value r 1))))
        hs;
      let acc = ref [] in
      Array.iter
        (fun (h : Pta_tables.handles) ->
          Table.iter h.Pta_tables.options_list (fun r ->
              let opt = Value.to_string (Record.value r 0) in
              let stock = Record.value r 1 in
              let strike = Value.to_float (Record.value r 2) in
              let expiry = Value.to_float (Record.value r 3) in
              let price =
                Strip_finance.Black_scholes.call
                  ~stock_price:(Hashtbl.find price_of stock)
                  ~strike ~rate:Strip_finance.Black_scholes.default_rate
                  ~volatility:(Hashtbl.find stdev_of stock)
                  ~expiry_years:expiry
              in
              acc := (opt, price) :: !acc))
        hs;
      List.sort compare !acc)

let maintained_sharded (hs : Pta_tables.handles array) =
  let acc = ref [] in
  Array.iter
    (fun (h : Pta_tables.handles) ->
      Table.iter h.Pta_tables.option_prices (fun r ->
          acc :=
            (Value.to_string (Record.value r 0), Value.to_float (Record.value r 1))
            :: !acc))
    hs;
  List.sort compare !acc

let recompute_from_scratch h = recompute_from_scratch_sharded [| h |]
let maintained h = maintained_sharded [| h |]
