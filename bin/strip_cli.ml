(* strip-cli — drive the STRIP reproduction from the command line.

   Subcommands:
     experiment   run one PTA experiment configuration and print its metrics
     explain      print the provenance lineage tree behind one derived row
     trace        generate a TAQ-style quote file
     rules        print the paper's rule definitions (Figures 3/6/7/8)
     repl         interactive SQL + rule-DDL shell on a fresh database
     chaos        explore seeded fault schedules and shrink failures
     scrub        run one storage-fault schedule and report the repair mix *)

open Cmdliner
open Strip_pta
open Strip_market

(* ------------------------------------------------------------------ *)
(* experiment                                                           *)

let view_arg =
  let doc = "View to maintain: comps | options." in
  Arg.(value & opt string "comps" & info [ "view" ] ~docv:"VIEW" ~doc)

let variant_arg =
  let doc =
    "Batching variant: none | unique | symbol | comp (comps) / option \
     (options)."
  in
  Arg.(value & opt string "none" & info [ "variant" ] ~docv:"VARIANT" ~doc)

let delay_arg =
  let doc = "Delay window in seconds." in
  Arg.(value & opt float 1.0 & info [ "delay" ] ~docv:"SECONDS" ~doc)

let scale_arg =
  let doc =
    "Workload scale factor (1.0 = the paper's 30-minute, 60k-update run)."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let verify_arg =
  let doc = "Verify the maintained view against full recomputation." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let seed_arg =
  let doc = "Trace random seed." in
  Arg.(value & opt int 1994 & info [ "seed" ] ~docv:"SEED" ~doc)

let abort_rate_arg =
  let doc =
    "Inject transaction aborts at this per-commit probability (0 disables \
     injection).  Failed tasks are retried with exponential backoff."
  in
  Arg.(value & opt float 0.0 & info [ "abort-rate" ] ~docv:"RATE" ~doc)

let fault_seed_arg =
  let doc = "Fault-injector random seed (injection is deterministic)." in
  Arg.(value & opt int 2025 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let retries_arg =
  let doc = "Retry budget: total attempts per failed task." in
  Arg.(value & opt int 5 & info [ "retries" ] ~docv:"N" ~doc)

let servers_arg =
  let doc =
    "Number of logical executor servers; overlapping task service windows \
     are arbitrated by the 2PL lock manager (blocked tasks park and wake \
     deterministically)."
  in
  Arg.(value & opt int 1 & info [ "servers" ] ~docv:"N" ~doc)

let watermark_arg =
  let doc =
    "Overload high watermark: shed (coalescing when possible) delayed rule \
     tasks once the live backlog exceeds $(docv).  0 disables overload \
     control."
  in
  Arg.(value & opt int 0 & info [ "watermark" ] ~docv:"N" ~doc)

let crash_rate_arg =
  let doc =
    "Inject whole-engine crashes at this per-site probability (0 disables).  \
     A crash kills all volatile state; the run restarts from the write-ahead \
     log and last checkpoint, then resumes the remaining feed.  Implies \
     durability."
  in
  Arg.(value & opt float 0.0 & info [ "crash-rate" ] ~docv:"RATE" ~doc)

let crash_at_arg =
  let doc =
    "Schedule one deterministic crash at $(docv) simulated seconds.  Implies \
     durability."
  in
  Arg.(value & opt (some float) None & info [ "crash-at" ] ~docv:"SECONDS" ~doc)

let checkpoint_interval_arg =
  let doc =
    "Enable the durability layer and take fuzzy checkpoints every $(docv) \
     simulated seconds (0 = only the initial checkpoint, so recovery redoes \
     the whole log)."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "checkpoint-interval" ] ~docv:"SECONDS" ~doc)

let trace_file_arg =
  let doc =
    "Record task/transaction lifecycle events and write them to $(docv) in \
     the Chrome trace_event format (open at chrome://tracing or \
     ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let slo_arg =
  let doc =
    "Staleness SLO objective $(docv) (repeatable), e.g. \
     $(b,comp_prices:2.0).  Every maintenance commit's staleness is \
     checked against the bound; the report gains per-view verdict lines \
     with violation windows, and any violated objective fails the run \
     (exit 1)."
  in
  Arg.(value & opt_all string [] & info [ "slo" ] ~docv:"VIEW:BOUND" ~doc)

let metrics_file_arg =
  let doc =
    "Write the post-run metrics-registry snapshot (latency percentiles per \
     task class, per-table staleness, failure counters) to $(docv); a .csv \
     suffix selects CSV, anything else JSON."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let json_arg =
  let doc = "Print the experiment metrics as JSON instead of a table." in
  Arg.(value & flag & info [ "json" ] ~doc)

let replicas_arg =
  let doc =
    "Attach $(docv) read replicas fed by WAL log shipping.  Implies the \
     durability layer; a primary crash is then resolved by failover \
     promotion instead of restart-in-place.  0 (the default) creates no \
     cluster and leaves the run identical to a non-replicated one."
  in
  Arg.(value & opt int 0 & info [ "replicas" ] ~docv:"N" ~doc)

let read_policy_arg =
  let doc =
    "Routing policy for the read pump: $(b,any) (round-robin over primary \
     and replicas), $(b,bounded:SECS) (any replica whose staleness is \
     under SECS, falling through to the primary; $(b,bounded:0) always \
     reads the primary), or $(b,primary) (primary only)."
  in
  Arg.(value & opt string "any" & info [ "read-policy" ] ~docv:"POLICY" ~doc)

let read_rate_arg =
  let doc =
    "Issue $(docv) read-only point queries per simulated second, routed by \
     $(b,--read-policy).  0 (the default) disables the read pump."
  in
  Arg.(value & opt float 0.0 & info [ "read-rate" ] ~docv:"RATE" ~doc)

let shards_arg =
  let doc =
    "Partition the base tables across $(docv) shard primaries \
     (hash-on-symbol), each with its own engine, WAL and checkpoints; \
     cross-shard composite maintenance ships weighted partial deltas \
     through the distributed unique-transaction queue.  1 (the default) \
     keeps the single-primary path and leaves the run byte-identical to a \
     shard-less one."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let shard_crash_at_arg =
  let doc =
    "Crash shard $(b,SID) at $(b,SECONDS) simulated seconds (format \
     $(b,SID:SECONDS)); the shard restarts in place from its own WAL and \
     re-ships its unacknowledged partials.  Requires $(b,--shards) > 1."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "shard-crash-at" ] ~docv:"SID:SECONDS" ~doc)

let parse_shard_crash_at = function
  | None -> Ok None
  | Some s -> (
    match String.index_opt s ':' with
    | Some i -> (
      let sid = String.sub s 0 i
      and at = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt sid, float_of_string_opt at) with
      | Some sid, Some at when sid >= 0 && at >= 0.0 -> Ok (Some (sid, at))
      | _ -> Error (Printf.sprintf "bad --shard-crash-at %S (want SID:SECONDS)" s))
    | None ->
      Error (Printf.sprintf "bad --shard-crash-at %S (want SID:SECONDS)" s))

let parse_read_policy s =
  let open Strip_repl.Cluster in
  match s with
  | "any" -> Ok Any
  | "primary" -> Ok Primary_only
  | _ ->
    let prefix = "bounded:" in
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      match float_of_string_opt (String.sub s plen (String.length s - plen)) with
      | Some b when b >= 0.0 -> Ok (Bounded_staleness b)
      | _ -> Error (Printf.sprintf "bad staleness bound in %S" s)
    else
      Error
        (Printf.sprintf "unknown read policy %S (any|bounded:SECS|primary)" s)

let rule_of_strings view variant =
  match (view, variant) with
  | "comps", "none" -> Ok (Experiment.Comp_view Comp_rules.Non_unique)
  | "comps", "unique" -> Ok (Experiment.Comp_view Comp_rules.Unique_coarse)
  | "comps", "symbol" -> Ok (Experiment.Comp_view Comp_rules.Unique_on_symbol)
  | "comps", "comp" -> Ok (Experiment.Comp_view Comp_rules.Unique_on_comp)
  | "options", "none" -> Ok (Experiment.Option_view Option_rules.Non_unique)
  | "options", "unique" -> Ok (Experiment.Option_view Option_rules.Unique_coarse)
  | "options", "symbol" ->
    Ok (Experiment.Option_view Option_rules.Unique_on_symbol)
  | "options", "option" ->
    Ok (Experiment.Option_view Option_rules.Unique_on_option)
  | _ -> Error (Printf.sprintf "unknown view/variant: %s/%s" view variant)

let parse_slos specs =
  List.fold_left
    (fun acc spec ->
      Result.bind acc (fun os ->
          Result.map (fun o -> o :: os) (Strip_obs.Slo.parse spec)))
    (Ok []) specs
  |> Result.map List.rev

let run_experiment view variant delay scale verify seed abort_rate fault_seed
    retries servers watermark crash_rate crash_at checkpoint_interval replicas
    read_policy read_rate shards shard_crash_at slo_specs trace_file
    metrics_file json =
  match
    Result.bind (rule_of_strings view variant) (fun rule ->
        Result.bind (parse_read_policy read_policy) (fun p ->
            Result.bind (parse_shard_crash_at shard_crash_at) (fun sc ->
                Result.map
                  (fun os -> (rule, p, sc, os))
                  (parse_slos slo_specs))))
  with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok (_, _, Some _, _) when shards < 2 ->
    prerr_endline "--shard-crash-at requires --shards > 1";
    1
  | Ok (rule, policy, shard_crash, objectives) ->
    let cfg = Experiment.default_config rule ~delay in
    let cfg =
      { cfg with Experiment.feed = { cfg.Experiment.feed with Feed.seed } }
    in
    let cfg = if scale <> 1.0 then Experiment.quick cfg scale else cfg in
    let cfg = { cfg with Experiment.verify; servers = max 1 servers } in
    let cfg =
      if watermark > 0 then
        {
          cfg with
          Experiment.overload =
            Some
              {
                Strip_sim.Engine.high_watermark = watermark;
                shed_policy = Strip_sim.Engine.Coalesce;
              };
        }
      else cfg
    in
    let cfg =
      if abort_rate > 0.0 then
        Experiment.with_faults ~seed:fault_seed
          ~retry:
            { Strip_sim.Engine.default_retry with max_attempts = retries }
          ~abort_rate cfg
      else cfg
    in
    let cfg =
      if crash_rate > 0.0 then begin
        let open Strip_txn in
        let base =
          match cfg.Experiment.fault with
          | Some f -> f
          | None -> { Fault.default_config with Fault.seed = fault_seed }
        in
        {
          cfg with
          Experiment.fault =
            Some
              {
                base with
                Fault.rates = { base.Fault.rates with Fault.crash = crash_rate };
              };
        }
      end
      else cfg
    in
    let cfg =
      if crash_rate > 0.0 || crash_at <> None || checkpoint_interval <> None
      then
        {
          cfg with
          Experiment.recovery =
            Some
              {
                Experiment.default_recovery with
                Experiment.checkpoint_every =
                  (match checkpoint_interval with
                  | Some i when i > 0.0 -> Some i
                  | Some _ -> None
                  | None ->
                    Experiment.default_recovery.Experiment.checkpoint_every);
                crash_at;
              };
        }
      else cfg
    in
    let cfg =
      if replicas > 0 || read_rate > 0.0 then
        {
          cfg with
          Experiment.repl =
            Some
              {
                Experiment.default_repl with
                Experiment.replicas = max 0 replicas;
                read_policy = policy;
                read_rate = max 0.0 read_rate;
              };
        }
      else cfg
    in
    let cfg =
      if shards > 1 then
        {
          cfg with
          Experiment.shard =
            Some
              {
                (Experiment.default_shard ~shards) with
                Experiment.shard_crash_at = shard_crash;
              };
        }
      else cfg
    in
    let tr = Option.map (fun _ -> Strip_obs.Trace.create ()) trace_file in
    let slo =
      match objectives with
      | [] -> None
      | os -> Some (Strip_obs.Slo.create os)
    in
    let cfg = { cfg with Experiment.trace = tr; slo } in
    let m = Experiment.run cfg in
    if json then Report.print_metrics_json [ m ]
    else begin
      Report.print_metrics_header ();
      Report.print_metrics m;
      Report.print_failures m;
      Report.print_servers m;
      Report.print_recovery m;
      Report.print_repl m;
      Report.print_shard m;
      Report.print_staleness m;
      Report.print_slo m;
      Report.print_trace m;
      Printf.printf
        "updates: %d; firings: %d; fanout E[rows/update]: %.1f; busy \
         update/recompute: %.1fs/%.1fs\n"
        m.Experiment.n_updates m.Experiment.n_firings
        m.Experiment.expected_fanout m.Experiment.busy_update_s
        m.Experiment.busy_recompute_s
    end;
    (match (trace_file, tr) with
    | Some path, Some tr ->
      let oc = open_out path in
      (* A replicated traced run merges every node's buffer into one
         cluster-wide tree (one pid per node); otherwise the single
         primary buffer exports exactly as before. *)
      (match m.Experiment.cluster_traces with
      | [] ->
        Strip_obs.Json.to_channel oc (Strip_obs.Trace.chrome_json tr);
        close_out oc;
        if not json then
          Printf.printf "wrote Chrome trace (%d events) to %s\n"
            (Strip_obs.Trace.length tr) path
      | nodes ->
        Strip_obs.Json.to_channel oc (Strip_obs.Trace.merge_chrome_json nodes);
        close_out oc;
        if not json then
          Printf.printf
            "wrote merged cluster trace (%d events across %d nodes) to %s\n"
            (List.fold_left
               (fun a (_, t) -> a + Strip_obs.Trace.length t)
               0 nodes)
            (List.length nodes) path)
    | _ -> ());
    (match metrics_file with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      if Filename.check_suffix path ".csv" then
        output_string oc (Strip_obs.Metrics.csv_of_rows m.Experiment.registry)
      else
        Strip_obs.Json.to_channel oc
          (Strip_obs.Metrics.json_of_rows m.Experiment.registry);
      close_out oc;
      if not json then Printf.printf "wrote metrics snapshot to %s\n" path);
    let audit_failed =
      (match m.Experiment.recovery with
      | Some r -> not r.Experiment.audit_clean
      | None -> false)
      ||
      match m.Experiment.shard with
      | Some s -> s.Experiment.cross_divergences > 0
      | None -> false
    in
    let slo_failed =
      List.exists
        (fun (r : Strip_obs.Slo.view_report) -> not r.Strip_obs.Slo.r_met)
        m.Experiment.slo
    in
    (match m.Experiment.verified with
    | Some false -> 1
    | _ -> if audit_failed || slo_failed then 1 else 0)

let experiment_cmd =
  let term =
    Term.(
      const run_experiment $ view_arg $ variant_arg $ delay_arg $ scale_arg
      $ verify_arg $ seed_arg $ abort_rate_arg $ fault_seed_arg $ retries_arg
      $ servers_arg $ watermark_arg $ crash_rate_arg $ crash_at_arg
      $ checkpoint_interval_arg $ replicas_arg $ read_policy_arg
      $ read_rate_arg $ shards_arg $ shard_crash_at_arg $ slo_arg
      $ trace_file_arg $ metrics_file_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Run one program-trading experiment (a Figure 9-14 curve point).")
    term

(* ------------------------------------------------------------------ *)
(* explain                                                              *)

let explain_table_arg =
  let doc = "Derived table (view) to explain, e.g. comp_prices." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TABLE" ~doc)

let explain_key_arg =
  let doc =
    "Derived-row key, e.g. a composite name.  List recorded keys by \
     passing a key that matches nothing."
  in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"KEY" ~doc)

let explain_limit_arg =
  let doc = "Most recent firings to show (0 = all)." in
  Arg.(value & opt int 5 & info [ "limit" ] ~docv:"N" ~doc)

let run_explain view variant delay scale seed table key limit json =
  match rule_of_strings view variant with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok rule ->
    let cfg = Experiment.default_config rule ~delay in
    let cfg =
      { cfg with Experiment.feed = { cfg.Experiment.feed with Feed.seed } }
    in
    let cfg = if scale <> 1.0 then Experiment.quick cfg scale else cfg in
    let prov = Strip_obs.Provenance.create () in
    (* Tracing on too, so every lineage entry carries the trace/span ids
       of the firing that wrote it and can be cross-referenced against a
       --trace export of the same seed. *)
    let cfg =
      {
        cfg with
        Experiment.verify = false;
        provenance = Some prov;
        trace = Some (Strip_obs.Trace.create ());
      }
    in
    ignore (Experiment.run cfg);
    (match Strip_obs.Provenance.query prov ~view:table ~key with
    | [] ->
      Printf.eprintf "no provenance recorded for %s[%s]\n" table key;
      (match Strip_obs.Provenance.views prov with
      | [] -> ()
      | views ->
        Printf.eprintf "views with recorded lineage: %s\n"
          (String.concat ", " views);
        if List.mem table views then begin
          let keys = Strip_obs.Provenance.keys prov ~view:table in
          let shown = List.filteri (fun i _ -> i < 10) keys in
          Printf.eprintf "%s keys (%d recorded): %s%s\n" table
            (List.length keys) (String.concat ", " shown)
            (if List.length keys > List.length shown then ", ..." else "")
        end);
      1
    | _ ->
      if json then
        print_endline
          (Strip_obs.Json.to_string
             (Strip_obs.Provenance.json prov ~view:table ~key))
      else print_string (Strip_obs.Provenance.render ~limit prov ~view:table ~key);
      0)

let explain_cmd =
  let term =
    Term.(
      const run_explain $ view_arg $ variant_arg $ delay_arg $ scale_arg
      $ seed_arg $ explain_table_arg $ explain_key_arg $ explain_limit_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run one experiment with the derived-row provenance store armed \
          and print the lineage tree behind TABLE[KEY]: each rule firing \
          with its transaction, trace span, commit time, and the base \
          deltas it consumed.")
    term

(* ------------------------------------------------------------------ *)
(* trace                                                                *)

let out_arg =
  let doc = "Output file." in
  Arg.(value & opt string "trace.taq" & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let run_trace out scale seed =
  let cfg = { (Feed.scaled Feed.default_config scale) with Feed.seed } in
  let quotes = Feed.generate cfg in
  Taq.save out quotes;
  Printf.printf "wrote %d quotes (%.0f simulated seconds) to %s\n"
    (Array.length quotes) cfg.Feed.duration out;
  0

let trace_cmd =
  let term = Term.(const run_trace $ out_arg $ scale_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "trace" ~doc:"Generate a TAQ-style consolidated quote file.")
    term

(* ------------------------------------------------------------------ *)
(* rules                                                                *)

let run_rules () =
  print_endline "-- comp_prices maintenance (Figures 3, 6, 7):";
  List.iter
    (fun v ->
      Printf.printf "\n%s\n" (Comp_rules.rule_text v ~delay:1.0))
    Comp_rules.all_variants;
  print_endline "\n-- option_prices maintenance (Figure 8 and variants):";
  List.iter
    (fun v ->
      Printf.printf "\n%s\n" (Option_rules.rule_text v ~delay:1.0))
    Option_rules.all_variants;
  0

let rules_cmd =
  let term = Term.(const run_rules $ const ()) in
  Cmd.v
    (Cmd.info "rules" ~doc:"Print the paper's rule definitions as STRIP DDL.")
    term

(* ------------------------------------------------------------------ *)
(* repl                                                                 *)

let run_repl () =
  let open Strip_core in
  let db = Strip_db.create () in
  print_endline
    "STRIP repl — SQL statements and `create rule ...` DDL; empty line or \
     \\q quits; \\run drains pending rule tasks; \\dt lists tables; \\rules \
     lists rules.";
  let buffer = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buffer = 0 then "strip> " else "   ... ");
    flush stdout;
    match input_line stdin with
    | exception End_of_file -> 0
    | "" | "\\q" when Buffer.length buffer = 0 -> 0
    | "\\run" ->
      Strip_db.run db;
      Printf.printf "drained; now = %.2fs\n" (Strip_db.now db);
      loop ()
    | "\\dt" ->
      let open Strip_relational in
      List.iter
        (fun tb ->
          Printf.printf "%-20s %6d rows  %s  indexes: %s\n" (Table.name tb)
            (Table.cardinal tb)
            (Format.asprintf "%a" Schema.pp (Table.schema tb))
            (String.concat ", "
               (List.map
                  (fun i ->
                    Printf.sprintf "%s(%s)" (Index.name i)
                      (match Index.kind i with
                      | Index.Hash -> "hash"
                      | Index.Ordered -> "tree"))
                  (Table.indexes tb))))
        (Catalog.tables (Strip_db.catalog db));
      loop ()
    | "\\rules" ->
      List.iter
        (fun r -> Format.printf "%a@." Rule_ast.pp r)
        (Rule_manager.rules (Strip_db.rules db));
      loop ()
    | line ->
      Buffer.add_string buffer line;
      Buffer.add_char buffer '\n';
      if String.contains line ';' then begin
        let text = Buffer.contents buffer in
        Buffer.clear buffer;
        (try
           match Strip_db.exec db (String.trim text) with
           | Strip_relational.Sql_exec.Rows r ->
             let open Strip_relational in
             let names = Schema.names (Query.result_schema r) in
             print_endline (String.concat " | " names);
             List.iter
               (fun row ->
                 print_endline
                   (String.concat " | "
                      (Array.to_list (Array.map Value.to_string row))))
               (Query.rows r)
           | Strip_relational.Sql_exec.Count n -> Printf.printf "%d row(s)\n" n
           | Strip_relational.Sql_exec.Unit -> print_endline "ok"
         with
        | Strip_relational.Sql_parser.Parse_error msg ->
          Printf.printf "parse error: %s\n" msg
        | Strip_relational.Query.Plan_error msg ->
          Printf.printf "plan error: %s\n" msg
        | Rule_manager.Rule_error msg -> Printf.printf "rule error: %s\n" msg
        | Strip_relational.Value.Type_error msg ->
          Printf.printf "type error: %s\n" msg
        | Invalid_argument msg -> Printf.printf "error: %s\n" msg);
        loop ()
      end
      else loop ()
  in
  loop ()

let repl_cmd =
  let term = Term.(const run_repl $ const ()) in
  Cmd.v (Cmd.info "repl" ~doc:"Interactive SQL and rule-DDL shell.") term

(* ------------------------------------------------------------------ *)
(* chaos                                                                *)

let schedules_arg =
  let doc = "Number of seeded schedules to generate and run." in
  Arg.(value & opt int 25 & info [ "schedules" ] ~docv:"N" ~doc)

let chaos_seed_arg =
  let doc = "Base seed; schedule $(i,i) uses seed + i." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let chaos_scale_arg =
  let doc = "Workload scale factor for each schedule's experiment." in
  Arg.(value & opt float 0.05 & info [ "chaos-scale" ] ~docv:"F" ~doc)

let replay_arg =
  let doc = "Replay one saved schedule (JSON) instead of exploring." in
  Arg.(
    value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)

let failure_out_arg =
  let doc = "Where to write the shrunk reproducer if a schedule fails." in
  Arg.(
    value
    & opt string "chaos_failure.json"
    & info [ "out" ] ~docv:"FILE" ~doc)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_chaos schedules seed scale storage replay out slo_specs json =
  match parse_slos slo_specs with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok objectives -> (
    let slo = match objectives with [] -> None | os -> Some os in
    match replay with
    | Some path ->
    let s =
      try Ok (Strip_chaos.Schedule.of_string (read_file path)) with
      | Sys_error msg -> Error msg
      | Invalid_argument msg | Strip_obs.Json.Parse_error msg ->
        Error (Printf.sprintf "%s: %s" path msg)
    in
    (match s with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok s ->
      let o = Strip_chaos.Explore.run_schedule ?slo s in
      if json then
        print_endline (Strip_obs.Json.to_string (Strip_chaos.Explore.outcome_json o))
      else begin
        Printf.printf "replaying %s (seed %d, scale %g):\n" path
          s.Strip_chaos.Schedule.seed s.Strip_chaos.Schedule.scale;
        Strip_chaos.Explore.print_outcome o
      end;
      if o.Strip_chaos.Explore.violations = [] then 0 else 1)
    | None ->
    let outcomes =
      if storage then
        Strip_chaos.Explore.explore_storage ?slo ~scale ~seed ~schedules ()
      else Strip_chaos.Explore.explore ?slo ~scale ~seed ~schedules ()
    in
    if json then
      print_endline
        (Strip_obs.Json.to_string
           (Strip_chaos.Explore.summary_json ~seed ~scale outcomes))
    else Strip_chaos.Explore.print_summary outcomes;
    (match
       List.find_opt
         (fun (o : Strip_chaos.Explore.outcome) ->
           o.Strip_chaos.Explore.violations <> [])
         outcomes
     with
    | None -> 0
    | Some o ->
      let shrunk =
        Strip_chaos.Explore.shrink ?slo o.Strip_chaos.Explore.schedule
      in
      let oc = open_out out in
      Strip_obs.Json.to_channel oc
        (Strip_chaos.Schedule.to_json shrunk.Strip_chaos.Explore.schedule);
      close_out oc;
      if not json then
        Printf.printf
          "shrunk failing schedule to %d event(s); reproducer written to \
           %s (replay with: strip-cli chaos --replay %s)\n"
          (List.length
             shrunk.Strip_chaos.Explore.schedule.Strip_chaos.Schedule.events)
          out out;
      1))

let chaos_storage_arg =
  let doc =
    "Explore storage-fault schedules (at-rest bit-rot, lying fsync, \
     disk-full backpressure) instead of the classic crash/partition mix; \
     arms the $(b,no_silent_corruption) and $(b,salvage_converges) \
     invariants on every run."
  in
  Arg.(value & flag & info [ "storage" ] ~doc)

let chaos_slo_arg =
  let doc =
    "Staleness SLO objective $(docv) (repeatable), armed as an extra \
     invariant: a schedule under which any objective is violated fails \
     and shrinks like any other violation."
  in
  Arg.(value & opt_all string [] & info [ "slo" ] ~docv:"VIEW:BOUND" ~doc)

let chaos_cmd =
  let term =
    Term.(
      const run_chaos $ schedules_arg $ chaos_seed_arg $ chaos_scale_arg
      $ chaos_storage_arg $ replay_arg $ failure_out_arg $ chaos_slo_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Explore seeded fault schedules (crashes, partitions, drop \
          bursts, checkpoint races) against a replicated durable run, \
          check invariants, and shrink any failure to a minimal \
          replayable reproducer.")
    term

(* ------------------------------------------------------------------ *)
(* scrub                                                                *)

let scrub_every_arg =
  let doc =
    "Background scrubber period in simulated seconds; 0 disables the \
     scrubber so corruption is only found by ship-time verification or \
     recovery (the silent-corruption demo)."
  in
  Arg.(value & opt float 0.5 & info [ "every" ] ~docv:"SECONDS" ~doc)

let scrub_retain_arg =
  let doc = "Checkpoint slots to retain for slot-CRC fallback." in
  Arg.(value & opt int 2 & info [ "retain" ] ~docv:"N" ~doc)

let run_scrub seed scale every retain json =
  let s = Strip_chaos.Schedule.generate_storage ~scale ~seed () in
  let storage =
    {
      Experiment.scrub_every = (if every > 0.0 then Some every else None);
      retain = max 1 retain;
    }
  in
  let o = Strip_chaos.Explore.run_schedule ~storage s in
  if json then
    print_endline
      (Strip_obs.Json.to_string (Strip_chaos.Explore.outcome_json o))
  else begin
    Printf.printf "storage-fault schedule (seed %d, scale %g):\n" seed scale;
    Strip_chaos.Explore.print_outcome o;
    match o.Strip_chaos.Explore.storage with
    | None -> ()
    | Some st ->
      Printf.printf
        "  scrub: %d pass(es) over %d bytes; %d WAL + %d checkpoint \
         corruption(s); repaired %d from replicas, %d from checkpoints; \
         salvage cpu %.1fms\n"
        st.Experiment.scrub_passes st.Experiment.scrub_bytes
        st.Experiment.wal_corruptions st.Experiment.cp_corruptions
        st.Experiment.repaired_replica st.Experiment.repaired_checkpoint
        (1e3 *. st.Experiment.salvage_s)
  end;
  if o.Strip_chaos.Explore.violations = [] then 0 else 1

let scrub_cmd =
  let term =
    Term.(
      const run_scrub $ chaos_seed_arg $ chaos_scale_arg $ scrub_every_arg
      $ scrub_retain_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Run one seeded storage-fault schedule (bit-rot, lying fsync, \
          disk-full) against a replicated durable run with the background \
          scrubber armed, and report the media-fault ledger: what was \
          injected, what was detected, and how each fault was repaired \
          (replica fetch, checkpoint fallback, or quarantine).")
    term

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "strip-cli" ~version:"1.0.0"
      ~doc:
        "STRIP rule system reproduction (Adelberg, Garcia-Molina, Widom, \
         SIGMOD 1997)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            experiment_cmd;
            explain_cmd;
            trace_cmd;
            rules_cmd;
            repl_cmd;
            chaos_cmd;
            scrub_cmd;
          ]))
