(* A downstream ticker plant: replay a market feed into the database with
   the import system, and export *conflated* price updates to a consumer
   that only wants one delivery per half-second — the export half of the
   paper's import/export system (§6.2), implemented with a batched unique
   rule under the hood.

   Run with: dune exec examples/ticker_plant.exe *)

open Strip_relational
open Strip_core
open Strip_market
open Strip_ingest

let () =
  let db = Strip_db.create () in
  Strip_db.exec_script db
    {|create table stocks (symbol string, price float);
      create index stocks_sym on stocks (symbol)|};
  let cat = Strip_db.catalog db in
  let stocks = Catalog.table_exn cat "stocks" in
  let target =
    {
      Import.stocks;
      by_symbol = Option.get (Table.find_index stocks "stocks_sym");
    }
  in

  (* a one-minute, 60-stock feed *)
  let feed =
    {
      Feed.default_config with
      Feed.n_stocks = 60;
      duration = 60.0;
      target_updates = 600;
      seed = 3;
    }
  in
  let prices = Feed.initial_prices feed in
  for s = 0 to feed.Feed.n_stocks - 1 do
    ignore
      (Table.insert stocks [| Value.Str (Taq.symbol s); Value.Float prices.(s) |])
  done;

  (* The consumer: wants at most one (conflated) delivery per 0.5 s. *)
  let deliveries = ref 0 and rows_delivered = ref 0 in
  let sub =
    Export.subscribe db ~table:"stocks" ~events:[ Export.On_update ]
      ~batch:0.5 ~columns:[ "symbol"; "price" ]
      (fun ~time ~rows ->
        incr deliveries;
        rows_delivered := !rows_delivered + List.length rows;
        if !deliveries <= 5 then
          Printf.printf "[t=%6.2fs] tick batch: %d change(s), e.g. %s @ %s\n"
            time (List.length rows)
            (Value.to_string (List.hd rows).(0))
            (Value.to_string (List.hd rows).(1)))
  in

  let n = Import.generate_and_replay db target feed in
  Printf.printf "replaying %d quotes...\n" n;
  Strip_db.run db;

  Printf.printf
    "\n%d raw quotes -> %d conflated deliveries (%.1f changes per delivery \
     on average)\n"
    n (Export.deliveries sub)
    (float_of_int !rows_delivered /. float_of_int (max 1 !deliveries));
  let stats = Strip_db.stats db in
  Printf.printf "cpu utilization: %.1f%%, N_r: %d, mean recompute: %.1f us\n"
    (100.0 *. Strip_sim.Stats.utilization stats ~duration_s:feed.Feed.duration)
    (Strip_sim.Stats.n_recompute stats)
    (Strip_sim.Stats.mean_service_us stats Strip_txn.Task.Recompute);
  assert (!rows_delivered = n)
