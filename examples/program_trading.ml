(* The paper's program trading application (§3), at 1/20 scale: a synthetic
   TAQ-like quote stream drives stock prices; STRIP rules maintain composite
   indexes incrementally and theoretical option prices via Black-Scholes,
   batched with unique transactions.

   Run with: dune exec examples/program_trading.exe *)

open Strip_relational
open Strip_core
open Strip_market
open Strip_pta

let scale = 0.05

let () =
  let db = Strip_db.create () in
  let feed = Feed.scaled Feed.default_config scale in
  let sizes = Pta_tables.scaled_sizes Pta_tables.default_sizes scale in
  Printf.printf
    "populating: %d stocks, %d composites x %d members, %d options...\n%!"
    feed.Feed.n_stocks sizes.Pta_tables.n_comps sizes.Pta_tables.comp_members
    sizes.Pta_tables.n_options;
  let h = Pta_tables.populate db ~feed sizes in

  (* Maintain composites per composite symbol and options per stock symbol —
     the units of batching the paper's experiments recommend (§5). *)
  Comp_rules.install db h Comp_rules.Unique_on_comp ~delay:1.0;
  Option_rules.install db h Option_rules.Unique_on_symbol ~delay:1.0;
  print_endline "installed rules:";
  List.iter
    (fun r -> Format.printf "  %a@." Rule_ast.pp r)
    (Rule_manager.rules (Strip_db.rules db));

  (* Replay the market feed through the simulator. *)
  let trace = Feed.generate feed in
  Printf.printf "replaying %d quotes over %.0f simulated seconds...\n%!"
    (Array.length trace) feed.Feed.duration;
  Array.iter
    (fun (q : Feed.quote) ->
      let symbol = Taq.symbol q.stock in
      Strip_db.submit_update db ~at:q.time (fun txn ->
          Db_ops.update_stock_price txn ~stocks:h.Pta_tables.stocks
            ~by_symbol:h.Pta_tables.stocks_by_symbol ~symbol ~price:q.price))
    trace;
  Strip_sim.Engine.set_arrival_profile (Strip_db.engine db)
    (Feed.arrival_times trace);
  Strip_db.run db;

  (* What did it cost, and is the derived data right? *)
  let stats = Strip_db.stats db in
  Printf.printf "cpu utilization: %.1f%%, N_r: %d, mean recompute: %.1f us\n"
    (100.0 *. Strip_sim.Stats.utilization stats ~duration_s:feed.Feed.duration)
    (Strip_sim.Stats.n_recompute stats)
    (Strip_sim.Stats.mean_service_us stats Strip_txn.Task.Recompute);

  let check name expected actual tol =
    let tbl = Hashtbl.create 256 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) expected;
    let worst =
      List.fold_left
        (fun worst (k, v) ->
          match Hashtbl.find_opt tbl k with
          | Some e -> Float.max worst (Float.abs (v -. e))
          | None -> infinity)
        0.0 actual
    in
    Printf.printf "%s: %s (max error %.2e over %d rows)\n" name
      (if worst <= tol then "consistent with full recomputation" else "STALE")
      worst (List.length actual)
  in
  check "comp_prices"
    (Comp_rules.recompute_from_scratch h)
    (Comp_rules.maintained h) 1e-6;
  check "option_prices"
    (Option_rules.recompute_from_scratch h)
    (Option_rules.maintained h) 1e-9;

  (* A taste of the application side: the five richest composites. *)
  print_endline "\ntop composites:";
  List.iter
    (fun row ->
      Printf.printf "  %s = %s\n" (Value.to_string row.(0))
        (Value.to_string row.(1)))
    (Strip_db.query_rows db
       "select comp, price from comp_prices order by price desc limit 5")
