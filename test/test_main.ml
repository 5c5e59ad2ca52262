(* Aggregated alcotest runner: `dune runtest` executes every suite. *)

let () =
  Alcotest.run "strip"
    (Test_value.suite @ Test_schema.suite @ Test_rbtree.suite
   @ Test_index.suite @ Test_table.suite @ Test_temp_table.suite
   @ Test_expr.suite @ Test_query.suite @ Test_query_model.suite
   @ Test_executor.suite
   @ Test_catalog.suite @ Test_sql.suite @ Test_txn.suite
   @ Test_queues.suite @ Test_sim.suite @ Test_robustness.suite
   @ Test_rules.suite @ Test_firing.suite
   @ Test_unique.suite @ Test_rule_properties.suite @ Test_finance.suite @ Test_market.suite
   @ Test_obs.suite
   @ Test_pta.suite @ Test_ingest.suite
   @ Test_recovery.suite @ Test_repl.suite @ Test_chaos.suite
   @ Test_storage.suite @ Test_shard.suite @ Test_integration.suite)
