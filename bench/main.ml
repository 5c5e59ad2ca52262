(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table 1, Figures 9-14), plus the lanes that gate the
   later subsystems.

   - Table 1 micro-benchmarks the engine's primitive operations with
     Bechamel (real nanoseconds on this machine) and prints them alongside
     the simulated cost model (the reconstruction of the paper's Table 1,
     whose only published total is 172 us for a one-tuple cursor update).
   - Figures 9-11 sweep the comp_prices maintenance variants over delay
     windows; Figures 12-14 do the same for option_prices.  Each run
     replays the TAQ-like trace through the simulator, really executing
     every transaction and rule, and verifies the maintained view against
     full recomputation.

   Usage: main.exe [--lane NAME[,NAME]] [--trace FILE] [--metrics FILE]

     --lane NAMES     run only these lanes; they always run in this order:
                        table1 figures ablations sweep robustness recovery
                        replication chaos storage shard wallclock
                      (default: every lane but wallclock)
     --trace FILE     merge every figure-sweep experiment's lifecycle
                      trace into one Chrome trace_event file (open at
                      chrome://tracing or ui.perfetto.dev)
     --metrics FILE   write every figure-sweep experiment's
                      metrics-registry snapshot (latency percentiles per
                      task class, per-table staleness, failure counters)
                      as JSON

   Environment:
     STRIP_BENCH_SCALE    workload scale factor (default 1.0 = the paper's
                          30-minute, 60k-update, 400x200-composite, 50k-option
                          scenario)
     STRIP_BENCH_DELAYS   comma-separated delay windows (default 0.5,1,1.5,2,3)

   A malformed argument or value exits 2 before any lane runs; a failed
   lane gate exits 1.  The lanes sweep, recovery, replication, chaos,
   storage, shard and wallclock each write one BENCH_*.json in the
   current directory, all in one shape:
     {"lane", "git_rev", "command", "params", "rows", "results"}
   [params] are the lane's inputs, [rows] its points (one object per
   sweep point, schedule or scenario) and [results] its lane-level
   outputs ({} when it has none).  scripts/check_bench.py compares a
   fresh run's files with the committed ones. *)

open Strip_relational
open Strip_txn
open Strip_pta
module Cost_model = Strip_sim.Cost_model
module Json = Strip_obs.Json

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let env_number name s ~valid ~what =
  match float_of_string_opt (String.trim s) with
  | Some f when Float.is_finite f && valid f -> f
  | _ -> usage_error "%s: %S is not %s" name s what

let scale =
  match Sys.getenv_opt "STRIP_BENCH_SCALE" with
  | None -> 1.0
  | Some s ->
    env_number "STRIP_BENCH_SCALE" s
      ~valid:(fun f -> f > 0.0)
      ~what:"a positive number"

let delays =
  match Sys.getenv_opt "STRIP_BENCH_DELAYS" with
  | None -> [ 0.5; 1.0; 1.5; 2.0; 3.0 ]
  | Some s ->
    List.map
      (fun x ->
        env_number "STRIP_BENCH_DELAYS" x
          ~valid:(fun f -> f >= 0.0)
          ~what:"a delay in seconds")
      (String.split_on_char ',' s)

(* Observability exports.  Each experiment records into its own ring
   buffer; traces merge into one Chrome file (one pid per experiment) and
   registry snapshots into one JSON document, so a single bench run yields
   one artifact per kind. *)
let trace_file = ref None
let metrics_file = ref None

let observing () = !trace_file <> None || !metrics_file <> None

let collected_traces : (string * Strip_obs.Trace.t) list ref = ref []
let collected_metrics : Json.t list ref = ref []

let collect (m : Experiment.metrics) tr =
  let open Strip_obs in
  let tag = Printf.sprintf "%s@%gs" m.Experiment.label m.Experiment.delay in
  (match tr with
  | Some tr -> collected_traces := (tag, tr) :: !collected_traces
  | None -> ());
  collected_metrics :=
    Json.Obj
      [
        ("label", Json.Str m.Experiment.label);
        ("delay_s", Json.Float m.Experiment.delay);
        ("report", Report.metrics_json m);
        ("metrics", Metrics.json_of_rows ~buckets:false m.Experiment.registry);
      ]
    :: !collected_metrics

let write_json path doc =
  let oc = open_out path in
  Json.to_channel oc doc;
  close_out oc

let write_exports () =
  (match !trace_file with
  | None -> ()
  | Some path ->
    let events =
      List.concat
        (List.mapi
           (fun i (tag, tr) ->
             Strip_obs.Trace.chrome_events ~pid:(i + 1) ~process_name:tag tr)
           (List.rev !collected_traces))
    in
    write_json path
      (Json.Obj
         [
           ("traceEvents", Json.List events);
           ("displayTimeUnit", Json.Str "ms");
         ]);
    Printf.printf "wrote Chrome trace (%d events) to %s\n%!"
      (List.length events) path);
  match !metrics_file with
  | None -> ()
  | Some path ->
    write_json path
      (Json.Obj [ ("experiments", Json.List (List.rev !collected_metrics)) ]);
    Printf.printf "wrote metrics snapshot to %s\n%!" path

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ================================================================== *)
(* Lane plumbing: the running lane's name, its one failure path, its
   gates and its one output file. *)

let lane = ref ""

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "%s FAILED: %s\n%!" (String.uppercase_ascii !lane) msg;
      exit 1)
    fmt

let check_converged what (m : Experiment.metrics) =
  if m.Experiment.verified <> Some true then
    fail "%s did not converge (max error %g)" what m.Experiment.max_abs_error

(* Fails the lane unless [value] rises (with [~falls], falls) from each
   point to the next; with [~strict:false] it may also stay level. *)
let check_monotone ?(strict = true) ?(falls = false) ~what ~at value points =
  let rec go = function
    | a :: (b :: _ as rest) ->
      let va = value a and vb = value b in
      let step = if falls then va -. vb else vb -. va in
      if step < 0.0 || (strict && step = 0.0) then
        fail "%s did not %s from %s to %s (%g -> %g)" what
          (if falls then "fall" else "rise")
          (at a) (at b) va vb;
      go rest
    | _ -> ()
  in
  go points

let git_rev =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
       let rev = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when rev <> "" -> rev
       | _ -> "unknown"
     with Unix.Unix_error _ | Sys_error _ -> "unknown")

(* The invocation that reproduces this run: the environment knobs that
   were set, then the arguments. *)
let command =
  String.concat " "
    (List.filter_map
       (fun v -> Option.map (Printf.sprintf "%s=%s" v) (Sys.getenv_opt v))
       [ "STRIP_BENCH_SCALE"; "STRIP_BENCH_DELAYS" ]
    @ ("bench/main.exe" :: List.tl (Array.to_list Sys.argv)))

let write_lane file ~params ?(results = []) rows =
  write_json file
    (Json.Obj
       [
         ("lane", Json.Str !lane);
         ("git_rev", Json.Str (Lazy.force git_rev));
         ("command", Json.Str command);
         ("params", Json.Obj params);
         ("rows", Json.List rows);
         ("results", Json.Obj results);
       ]);
  Printf.printf "wrote %s lane results to %s\n%!" !lane file

(* The server and shard sweeps de-rate the simulated CPU until one
   server (one shard primary) cannot keep up with the feed. *)
let slowdown = 250.0

let derated_cost =
  Cost_model.create
    (List.map
       (fun (name, us) -> (name, us *. slowdown))
       (Cost_model.entries Cost_model.default))

(* ================================================================== *)
(* Table 1: primitive operation timings.                               *)

let bench_table1 () =
  section "Table 1: basic STRIP operations";
  (* a 10k-row indexed table, like a live system's *)
  let cat = Catalog.create () in
  let tb =
    Catalog.create_table cat ~name:"t"
      ~schema:(Schema.of_list [ ("k", Value.TInt); ("v", Value.TFloat) ])
  in
  let idx = Table.create_index tb ~name:"t_k" ~kind:Index.Hash ~cols:[ "k" ] in
  for i = 0 to 9_999 do
    ignore (Table.insert tb [| Value.Int i; Value.Float (float_of_int i) |])
  done;
  let locks = Lock.create () in
  let clock = Clock.create () in
  (* Keep a rotating row id so updates spread over the table. *)
  let next = ref 0 in
  let bump () =
    next := (!next + 7919) mod 10_000;
    !next
  in
  (* The benchmarked closures measure raw engine speed; metering stays on,
     as it does during experiments. *)
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"begin+commit transaction"
        (Staged.stage (fun () ->
             let txn = Transaction.begin_ ~cat ~locks ~clock () in
             Transaction.commit txn;
             Transaction.cleanup txn));
      Test.make ~name:"get+release lock"
        (Staged.stage (fun () ->
             ignore (Lock.acquire locks ~owner:0 (Lock.Rec ("t", bump ())) Lock.X);
             Lock.release_all locks ~owner:0));
      Test.make ~name:"open+close cursor"
        (Staged.stage (fun () ->
             let c = Table.open_cursor tb in
             Table.close_cursor c));
      Test.make ~name:"index probe"
        (Staged.stage (fun () -> ignore (Index.lookup idx [ Value.Int (bump ()) ])));
      Test.make ~name:"fetch cursor (via index)"
        (Staged.stage (fun () ->
             let c = Table.open_index_cursor tb idx [ Value.Int (bump ()) ] in
             ignore (Table.fetch c);
             Table.close_cursor c));
      Test.make ~name:"cursor update (one tuple)"
        (Staged.stage (fun () ->
             let c = Table.open_index_cursor tb idx [ Value.Int (bump ()) ] in
             (match Table.fetch c with
             | Some r ->
               ignore
                 (Table.cursor_update c
                    [| Record.value r 0;
                       Value.add (Record.value r 1) (Value.Float 1.0) |])
             | None -> ());
             Table.close_cursor c));
      Test.make ~name:"simple update transaction (full path)"
        (Staged.stage (fun () ->
             let txn = Transaction.begin_ ~cat ~locks ~clock () in
             ignore
               (Transaction.exec txn
                  (Printf.sprintf "update t set v = v + 1.0 where k = %d" (bump ())));
             Transaction.commit txn;
             Transaction.cleanup txn));
    ]
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"table1" tests)
  in
  let results = Analyze.all ols instance raw in
  let measured = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) -> Hashtbl.replace measured name ns
      | _ -> ())
    results;
  Printf.printf "%-42s %14s\n" "operation (this machine, real time)" "ns/op";
  List.iter
    (fun t ->
      let name = "table1/" ^ Test.Elt.name (List.hd (Test.elements t)) in
      match Hashtbl.find_opt measured name with
      | Some ns -> Printf.printf "%-42s %14.0f\n" name ns
      | None -> Printf.printf "%-42s %14s\n" name "-")
    tests;
  print_newline ();
  Printf.printf
    "Simulated cost model (reconstruction of the paper's Table 1, us):\n";
  List.iter
    (fun (name, us) -> Printf.printf "  %-24s %6.1f\n" name us)
    (Cost_model.table1_entries Cost_model.default);
  Printf.printf
    "  %-24s %6.1f   (paper: 172 us => ~5,814 TPS; observed ~7,000 TPS)\n"
    "simple one-tuple update"
    (Cost_model.simple_update_us Cost_model.default)

(* ================================================================== *)
(* Figures 9-14.                                                        *)

let run_sweep rules =
  (* The non-unique baseline ignores the delay window: run it once. *)
  List.concat_map
    (fun rule ->
      let is_baseline =
        match rule with
        | Experiment.Comp_view Comp_rules.Non_unique
        | Experiment.Option_view Option_rules.Non_unique ->
          true
        | _ -> false
      in
      let deltas = if is_baseline then [ 0.0 ] else delays in
      List.map
        (fun delay ->
          let cfg = Experiment.default_config rule ~delay in
          let cfg = if scale <> 1.0 then Experiment.quick cfg scale else cfg in
          let tr =
            if observing () then Some (Strip_obs.Trace.create ()) else None
          in
          let cfg = { cfg with Experiment.trace = tr } in
          let m = Experiment.run cfg in
          Report.print [ Report.Row ] (Report.metrics_json m);
          if observing () then collect m tr;
          m)
        deltas)
    rules

let series_of metrics ~label_of ~value_of =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (m : Experiment.metrics) ->
      let label = label_of m in
      let cur =
        match Hashtbl.find_opt tbl label with
        | Some l -> l
        | None ->
          order := label :: !order;
          []
      in
      Hashtbl.replace tbl label (cur @ [ (m.Experiment.delay, value_of m) ]))
    metrics;
  List.rev_map (fun label -> (label, Hashtbl.find tbl label)) !order

let figures () =
  section
    (Printf.sprintf
       "Figures 9-14 (scale %.2f: %.0f s trace, ~%d updates; delays %s)" scale
       (1800.0 *. scale)
       (int_of_float (60000.0 *. scale))
       (String.concat "," (List.map (Printf.sprintf "%g") delays)));
  Report.print_metrics_header ();
  let comp_metrics =
    run_sweep
      [
        Experiment.Comp_view Comp_rules.Non_unique;
        Experiment.Comp_view Comp_rules.Unique_coarse;
        Experiment.Comp_view Comp_rules.Unique_on_symbol;
        Experiment.Comp_view Comp_rules.Unique_on_comp;
      ]
  in
  let option_metrics =
    run_sweep
      [
        Experiment.Option_view Option_rules.Non_unique;
        Experiment.Option_view Option_rules.Unique_coarse;
        Experiment.Option_view Option_rules.Unique_on_symbol;
      ]
  in
  List.iter
    (fun (m : Experiment.metrics) ->
      if m.Experiment.verified = Some false then
        fail "%s delay %.1f diverged from full recomputation (max error %g)"
          m.Experiment.label m.Experiment.delay m.Experiment.max_abs_error)
    (comp_metrics @ option_metrics);
  let strip_prefix (m : Experiment.metrics) =
    match String.index_opt m.Experiment.label '/' with
    | Some i ->
      String.sub m.Experiment.label (i + 1)
        (String.length m.Experiment.label - i - 1)
    | None -> m.Experiment.label
  in
  let fig title ylabel metrics value_of fmt =
    Report.print_series ~title ~ylabel ~delays
      ~series:(series_of metrics ~label_of:strip_prefix ~value_of)
      ~value_fmt:fmt
  in
  fig "Figure 9: CPU utilization maintaining comp_prices" "cpu" comp_metrics
    (fun m -> m.Experiment.utilization)
    Report.fmt_pct;
  fig "Figure 10: number of recomputations N_r (comp_prices)" "N_r" comp_metrics
    (fun m -> float_of_int m.Experiment.n_recompute)
    Report.fmt_count;
  fig "Figure 11: mean recompute transaction length (comp_prices)" "length"
    comp_metrics
    (fun m -> m.Experiment.mean_recompute_us)
    Report.fmt_us;
  fig "Figure 12: CPU utilization maintaining option_prices" "cpu" option_metrics
    (fun m -> m.Experiment.utilization)
    Report.fmt_pct;
  fig "Figure 13: number of recomputations N_r (option_prices)" "N_r"
    option_metrics
    (fun m -> float_of_int m.Experiment.n_recompute)
    Report.fmt_count;
  fig "Figure 14: mean recompute transaction length (option_prices)" "length"
    option_metrics
    (fun m -> m.Experiment.mean_recompute_us)
    Report.fmt_us;
  print_newline ();
  print_endline
    "All configurations verified: maintained views match full recomputation.";
  match Cost_model.unknown_counters () with
  | [] -> ()
  | l ->
    Printf.printf "warning: counters with no cost entry: %s\n"
      (String.concat ", " l)

(* ================================================================== *)
(* Ablations: the modelled design choices DESIGN.md calls out.          *)

let ablations () =
  section "Ablations (design-choice studies)";
  let run ?(ab_scale = 0.25) ?(tweak_cost = fun c -> c)
      ?(tweak_feed = fun f -> f) rule delay =
    let cfg = Experiment.default_config rule ~delay in
    let cfg = Experiment.quick cfg ab_scale in
    let cfg =
      {
        cfg with
        Experiment.cost = tweak_cost cfg.Experiment.cost;
        feed = tweak_feed cfg.Experiment.feed;
        verify = false;
      }
    in
    Experiment.run cfg
  in
  let pct m = 100.0 *. m.Experiment.utilization in

  (* 1. The §5.1 scheduling-congestion surcharge is what makes fine-grained
     batching (unique on comp) collapse at small delay windows. *)
  Printf.printf
    "\n1. critical region (full scale): unique-on-comp at 0.5 s, with and\n\
    \   without the quadratic scheduling surcharge (vs non-unique baseline)\n%!";
  let no_congestion c = Cost_model.override c [ ("sched_congestion", 0.0) ] in
  let base = run ~ab_scale:1.0 (Experiment.Comp_view Comp_rules.Non_unique) 0.0 in
  let with_c =
    run ~ab_scale:1.0 (Experiment.Comp_view Comp_rules.Unique_on_comp) 0.5
  in
  let without_c =
    run ~ab_scale:1.0 ~tweak_cost:no_congestion
      (Experiment.Comp_view Comp_rules.Unique_on_comp) 0.5
  in
  Printf.printf
    "   non-unique %.1f%% | on-comp with congestion %.1f%% | without %.1f%%\n%!"
    (pct base) (pct with_c) (pct without_c);

  (* 2. The Figure-12 crossover exists because intra-burst quote gaps have
     a ~1 s floor; with uniformly-spread bursts, sub-second delay windows
     batch heavily and the crossover disappears. *)
  Printf.printf
    "\n2. temporal locality: option_prices unique-on-symbol at 0.5 s delay,\n\
    \   with the gap-floor burst model vs dense bursts (floor 0.05 s)\n%!";
  let dense f =
    { f with Strip_market.Feed.burst_gap_min = 0.05; burst_gap_mean = 0.25 }
  in
  let o_base = run (Experiment.Option_view Option_rules.Non_unique) 0.0 in
  let o_floor = run (Experiment.Option_view Option_rules.Unique_on_symbol) 0.5 in
  let o_dense =
    run ~tweak_feed:dense (Experiment.Option_view Option_rules.Unique_on_symbol) 0.5
  in
  let o_base_dense =
    run ~tweak_feed:dense (Experiment.Option_view Option_rules.Non_unique) 0.0
  in
  Printf.printf
    "   gap-floor trace: non-unique %.1f%%, on-symbol@0.5s %.1f%% (batching \
     loses)\n\
    \   dense bursts:    non-unique %.1f%%, on-symbol@0.5s %.1f%% (batching \
     wins)\n%!"
    (pct o_base) (pct o_floor) (pct o_base_dense) (pct o_dense);

  (* 3. Context-switch charging penalizes long coarse transactions (§5.2
     third bullet). *)
  Printf.printf
    "\n3. preemption overhead: coarse unique option batches at 3 s delay,\n\
    \   with and without context-switch charging\n";
  let no_ctx c = Cost_model.override c [ ("context_switch", 0.0) ] in
  let c_with =
    run ~ab_scale:1.0 (Experiment.Option_view Option_rules.Unique_coarse) 3.0
  in
  let c_without =
    run ~ab_scale:1.0 ~tweak_cost:no_ctx
      (Experiment.Option_view Option_rules.Unique_coarse) 3.0
  in
  Printf.printf "   with %.1f%% (%d switches) | without %.1f%%\n%!" (pct c_with)
    c_with.Experiment.context_switches (pct c_without);

  (* 4. The unit of batching trades CPU against transaction length (§5
     conclusion): same delay, three units. *)
  Printf.printf
    "\n4. unit of batching at 2 s delay (comp_prices): cpu%% vs transaction \
     length\n";
  List.iter
    (fun v ->
      let m = run (Experiment.Comp_view v) 2.0 in
      Printf.printf "   %-18s %6.1f%%  mean %10s  max %10s\n%!"
        (Comp_rules.variant_name v) (pct m)
        (Report.fmt_us m.Experiment.mean_recompute_us)
        (Report.fmt_us m.Experiment.max_recompute_us))
    [ Comp_rules.Unique_coarse; Comp_rules.Unique_on_symbol;
      Comp_rules.Unique_on_comp ]

(* ================================================================== *)
(* Server sweep: multi-server execution under overload (PR3).          *)

let server_sweep () =
  section "Server sweep (multi-server lock-arbitrated execution)";
  (* Overload knob: de-rate the simulated CPU until one server cannot keep
     up with the feed.  Total work is then fixed (the non-unique rule never
     merges), so extra servers shrink the makespan and recompute throughput
     climbs until the feed itself becomes the bottleneck.  Lock conflicts
     are real: concurrent recomputes collide on shared composite rows and
     park/wake through the 2PL manager. *)
  let sw_scale = Float.min scale 0.05 in
  let run_at servers =
    let cfg =
      Experiment.default_config (Experiment.Comp_view Comp_rules.Non_unique)
        ~delay:0.0
    in
    let cfg = Experiment.quick cfg sw_scale in
    let cfg =
      {
        cfg with
        Experiment.cost = derated_cost;
        verify = true;
        servers;
        (* With a de-rated CPU the queueing delay between a wake and the
           re-run dwarfs the 5 s wait-timeout default, so a contended task
           would be presumed deadlocked over and over and eventually
           dead-letter — losing its recompute.  Scale the timeout with the
           slowdown and give the retry path budget to spare. *)
        lock_timeout_s = 120.0;
        retry =
          Some { Strip_sim.Engine.default_retry with max_attempts = 20 };
      }
    in
    let m = Experiment.run cfg in
    Report.print Report.[ Row; Servers ] (Report.metrics_json m);
    check_converged (Printf.sprintf "%d-server run" servers) m;
    m
  in
  Report.print_metrics_header ();
  let ms = List.map run_at [ 1; 2; 4; 8 ] in
  check_monotone ~what:"recompute throughput (/s)"
    ~at:(fun (m : Experiment.metrics) ->
      Printf.sprintf "%d servers" m.Experiment.servers)
    (fun m -> m.Experiment.recompute_throughput_per_s)
    ms;
  let point (m : Experiment.metrics) =
    Json.Obj
      [
        ("servers", Json.Int m.Experiment.servers);
        ("makespan_s", Json.Float m.Experiment.makespan_s);
        ( "recompute_throughput_per_s",
          Json.Float m.Experiment.recompute_throughput_per_s );
        ("p99_recompute_latency_us", Json.Float m.Experiment.p99_recompute_us);
        ( "staleness_p99_s",
          match List.assoc_opt "comp_prices" m.Experiment.staleness with
          | Some (s : Strip_obs.Histogram.summary) -> Json.Float s.p99
          | None -> Json.Null );
        ( "per_server_utilization",
          Json.List
            (List.map (fun u -> Json.Float u) m.Experiment.per_server_utilization)
        );
        ("n_lock_waits", Json.Int m.Experiment.n_lock_waits);
        ("n_lock_timeouts", Json.Int m.Experiment.n_lock_timeouts);
      ]
  in
  write_lane "BENCH_PR3.json"
    ~params:
      [ ("scale", Json.Float sw_scale); ("cost_slowdown", Json.Float slowdown) ]
    (List.map point ms)

(* ================================================================== *)
(* Robustness: fault injection, retry convergence, overload shedding.   *)

let robustness () =
  section "Robustness (fault injection / retry / overload shedding)";
  let rb_scale = Float.min scale 0.25 in
  let base rule delay =
    let cfg = Experiment.default_config rule ~delay in
    Experiment.quick cfg rb_scale
  in

  (* 1. Convergence under injected aborts: 10% of task transactions abort
     just before commit; every failure must be retried (or, at worst,
     dead-lettered — never silently lost) and the maintained views must
     still match full recomputation. *)
  Printf.printf
    "\n1. convergence under 10%% injected transaction aborts (seed 42)\n%!";
  List.iter
    (fun rule ->
      (* 8 attempts: at a 10% abort rate the per-task dead-letter
         probability is 1e-8, so across the run's ~30k tasks no batch may
         be lost and the views must converge exactly.  (The default 5
         attempts leave ~1e-5 per task — a streak long enough to
         dead-letter one batch shows up every few seeds.) *)
      let cfg =
        Experiment.with_faults ~seed:42
          ~retry:{ Strip_sim.Engine.default_retry with max_attempts = 8 }
          ~abort_rate:0.1 (base rule 1.0)
      in
      let m = Experiment.run cfg in
      Report.print_metrics_header ();
      Report.print Report.[ Row; Failures ] (Report.metrics_json m);
      let accounted = m.Experiment.n_retries + m.Experiment.n_dead_letters in
      if m.Experiment.n_aborts > accounted then
        fail "%d aborts but only %d retried+dead-lettered"
          m.Experiment.n_aborts accounted;
      check_converged (m.Experiment.label ^ " under faults") m)
    [
      Experiment.Comp_view Comp_rules.Unique_on_symbol;
      Experiment.Option_view Option_rules.Unique_on_symbol;
    ];
  Printf.printf "   every abort retried or dead-lettered; views converged\n%!";

  (* 2. Forced overload: a tiny watermark makes the engine shed delayed
     recompute batches.  The run must still drain (the engine stays live)
     and every shed must be counted.  Shedding rule work necessarily
     sacrifices view freshness, so verification is off here — the point is
     graceful degradation, not correctness. *)
  Printf.printf "\n2. forced overload (watermark 4, drop policy)\n%!";
  let cfg = base (Experiment.Comp_view Comp_rules.Unique_on_comp) 2.0 in
  let cfg =
    {
      cfg with
      Experiment.verify = false;
      overload =
        Some
          {
            Strip_sim.Engine.high_watermark = 4;
            shed_policy = Strip_sim.Engine.Drop;
          };
    }
  in
  let m = Experiment.run cfg in
  Report.print [ Report.Failures ] (Report.metrics_json m);
  if m.Experiment.n_sheds = 0 then fail "overload run shed nothing";
  Printf.printf "   engine stayed live: %d updates served, %d batches shed\n%!"
    m.Experiment.n_updates m.Experiment.n_sheds

(* ================================================================== *)
(* Crash recovery: WAL + fuzzy checkpoints (PR4).                      *)

let recovery_sweep () =
  section "Crash recovery (WAL + fuzzy checkpoints)";
  let rc_scale = Float.min scale 0.05 in
  let cfg0 =
    Experiment.quick
      (Experiment.default_config
         (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0)
      rc_scale
  in
  let duration = cfg0.Experiment.feed.Strip_market.Feed.duration in
  let crash_at = duration /. 2.0 in
  Printf.printf
    "\ncheckpoint-interval sweep: one crash at t=%.0fs of a %.0fs feed; \
     denser checkpoints must shrink the redo work\n%!"
    crash_at duration;
  let interval = function
    | Some s -> Printf.sprintf "%gs" s
    | None -> "off"
  in
  let run_at checkpoint_every =
    let cfg =
      {
        cfg0 with
        Experiment.recovery =
          Some
            {
              Experiment.checkpoint_every;
              crash_at = Some crash_at;
            };
      }
    in
    let m = Experiment.run cfg in
    let r = Option.get m.Experiment.recovery in
    Printf.printf
      "   checkpoint %-5s %2d checkpoints; redo %5d commits / %5d ops; \
       requeued %3d; recovery %.3fs; wal %.3fs cpu; checkpoint %.3fs cpu; \
       audit %s\n%!"
      (interval checkpoint_every)
      r.Experiment.n_checkpoints r.Experiment.redo_commits
      r.Experiment.redo_ops r.Experiment.requeued
      r.Experiment.total_recovery_s r.Experiment.wal_overhead_s
      r.Experiment.checkpoint_overhead_s
      (if r.Experiment.audit_clean then "clean" else "DIVERGENT");
    check_converged "crashy run" m;
    if not r.Experiment.audit_clean then
      fail "final audit divergent (%d keys)" r.Experiment.audit_divergences;
    (checkpoint_every, r)
  in
  let points = List.map run_at [ Some 1.0; Some 5.0; Some 30.0; None ] in
  (* Denser checkpoints must mean less log to redo: the replayed commit
     count may not grow as the interval shrinks, and the densest setting
     must replay strictly less than no checkpointing at all. *)
  let redo (_, (r : Experiment.recovery_metrics)) =
    float_of_int r.Experiment.redo_commits
  in
  check_monotone ~strict:false ~what:"redo commits"
    ~at:(fun (every, _) -> "checkpoints every " ^ interval every)
    redo points;
  (match (points, List.rev points) with
  | densest :: _, loosest :: _ when redo densest >= redo loosest ->
    fail "1s checkpoints redo as much as no checkpoints (%g vs %g commits)"
      (redo densest) (redo loosest)
  | _ -> ());
  let point (every, (r : Experiment.recovery_metrics)) =
    Json.Obj
      [
        ( "checkpoint_every_s",
          match every with Some s -> Json.Float s | None -> Json.Null );
        ("n_checkpoints", Json.Int r.Experiment.n_checkpoints);
        ("redo_commits", Json.Int r.Experiment.redo_commits);
        ("redo_ops", Json.Int r.Experiment.redo_ops);
        ("requeued", Json.Int r.Experiment.requeued);
        ("restored_rows", Json.Int r.Experiment.restored_rows);
        ("recovery_s", Json.Float r.Experiment.total_recovery_s);
        ("wal_overhead_s", Json.Float r.Experiment.wal_overhead_s);
        ("checkpoint_overhead_s", Json.Float r.Experiment.checkpoint_overhead_s);
        ("audit_clean", Json.Bool r.Experiment.audit_clean);
      ]
  in
  write_lane "BENCH_PR4.json"
    ~params:
      [ ("scale", Json.Float rc_scale); ("crash_at_s", Json.Float crash_at) ]
    (List.map point points)

(* ================================================================== *)
(* Replication: WAL log shipping + read replicas (PR5).                *)

let replica_sweep () =
  section "Replication (WAL shipping + read replicas)";
  let rp_scale = Float.min scale 0.05 in
  let cfg0 =
    Experiment.quick
      (Experiment.default_config
         (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0)
      rp_scale
  in
  let duration = cfg0.Experiment.feed.Strip_market.Feed.duration in
  (* An open-loop read pump whose offered load exceeds even the largest
     cluster's service capacity: every configuration is saturated, so read
     throughput must scale with the lane count (primary + replicas) and
     queueing — hence p99 read latency — must shrink. *)
  let read_rate = 200.0 in
  let read_cost_s = 0.03 in
  Printf.printf
    "\nreplica sweep: %.0f reads/s offered for %.0fs (%.0fms/read service) \
     against 0/1/2/4 replicas, policy any; read throughput must rise and \
     p99 read latency fall as replicas are added\n%!"
    read_rate duration (read_cost_s *. 1000.0);
  let run_at replicas =
    let cfg =
      {
        cfg0 with
        Experiment.repl =
          Some
            {
              Experiment.default_repl with
              Experiment.replicas;
              read_policy = Strip_repl.Cluster.Any;
              read_rate;
              read_cost_s;
            };
      }
    in
    let m = Experiment.run cfg in
    let r = Option.get m.Experiment.repl in
    let p99 =
      match r.Experiment.read_latency with
      | Some s -> s.Strip_obs.Histogram.p99
      | None -> nan
    in
    Printf.printf
      "   replicas %d: %5d reads (%5d primary / %5d replica); throughput \
       %6.1f/s; p99 %8.1fms; %5d segments shipped (%d dropped)\n%!"
      replicas r.Experiment.n_reads r.Experiment.reads_primary
      r.Experiment.reads_replica r.Experiment.read_throughput_per_s
      (p99 *. 1000.0) r.Experiment.segments_sent r.Experiment.segments_dropped;
    check_converged "replicated run" m;
    (replicas, r.Experiment.read_throughput_per_s, p99)
  in
  let points = List.map run_at [ 0; 1; 2; 4 ] in
  let at (n, _, _) = Printf.sprintf "%d replicas" n in
  check_monotone ~what:"read throughput (/s)" ~at (fun (_, t, _) -> t) points;
  check_monotone ~falls:true ~what:"p99 read latency (s)" ~at
    (fun (_, _, p) -> p)
    points;
  let point (replicas, throughput, p99) =
    Json.Obj
      [
        ("replicas", Json.Int replicas);
        ("read_throughput_per_s", Json.Float throughput);
        ("read_p99_latency_s", Json.Float p99);
      ]
  in
  write_lane "BENCH_PR5.json"
    ~params:
      [
        ("scale", Json.Float rp_scale);
        ("read_rate_per_s", Json.Float read_rate);
        ("read_cost_s", Json.Float read_cost_s);
      ]
    (List.map point points)

(* ------------------------------------------------------------------ *)
(* The chaos and storage lanes run a seeded sweep of fault schedules
   through the explorer.  Any invariant violation fails the lane after
   each violating schedule is shrunk to a 1-minimal reproducer and
   written out by [report]. *)

let explore_params ~seed ~scale ~schedules =
  [
    ("seed", Json.Int seed);
    ("scale", Json.Float scale);
    ("schedules", Json.Int schedules);
  ]

let fail_on_violations outcomes ~file ~report =
  let violations = Strip_chaos.Explore.total_violations outcomes in
  if violations > 0 then begin
    List.iter
      (fun (o : Strip_chaos.Explore.outcome) ->
        if o.Strip_chaos.Explore.violations <> [] then begin
          let sched = o.Strip_chaos.Explore.schedule in
          Printf.printf "  shrinking seed %d...\n%!"
            sched.Strip_chaos.Schedule.seed;
          let shrunk = Strip_chaos.Explore.shrink sched in
          let path = file sched.Strip_chaos.Schedule.seed in
          write_json path (report o shrunk.Strip_chaos.Explore.schedule);
          Printf.printf "  reproducer: %s\n%!" path
        end)
      outcomes;
    fail "%d invariant violation(s) across the sweep" violations
  end

(* The chaos lane: crashes, partitions, drop bursts and checkpoint
   races, each run as a full replicated, durable experiment and checked
   against the explorer's invariants.  A reproducer replays with
   [strip-cli chaos --replay FILE]. *)

let chaos_lane () =
  let seed = 7 and schedules = 25 and ch_scale = 0.05 in
  Printf.printf
    "\n== Chaos lane: %d seeded fault schedules (seed %d, scale %g) ==\n%!"
    schedules seed ch_scale;
  let outcomes =
    Strip_chaos.Explore.explore ~scale:ch_scale ~seed ~schedules ()
  in
  Strip_chaos.Explore.print_summary outcomes;
  let violations = Strip_chaos.Explore.total_violations outcomes in
  write_lane "BENCH_PR6.json"
    ~params:(explore_params ~seed ~scale:ch_scale ~schedules)
    ~results:[ ("violations", Json.Int violations) ]
    (List.map Strip_chaos.Explore.outcome_json outcomes);
  fail_on_violations outcomes
    ~file:(Printf.sprintf "chaos_failure_seed%d.json")
    ~report:(fun _ shrunk -> Strip_chaos.Schedule.to_json shrunk)

(* The storage-fault lane.  Media-fault schedules — at-rest bit rot
   on the WAL and checkpoint images, lying fsyncs, disk-full
   backpressure, half of them racing a crash or a partition — checked
   against the explorer's invariants, now including
   no_silent_corruption and salvage_converges.  A violation's quarantine
   report holds the outcome's full media ledger plus the shrunk
   reproducer.

   The lane then isolates the salvage ladder: the same WAL-bitrot run
   with replicas (rung 1: re-fetch clean bytes and splice in place)
   versus without (rung 2: emergency checkpoint and truncate the
   retained log away).  The gate is the rungs' byte cost: replica-served
   salvage must rewrite strictly fewer bytes than checkpoint-based
   repair destroys, which is the whole reason the ladder tries replicas
   first. *)

let storage_lane () =
  let seed = 11 and schedules = 6 and st_scale = 0.05 in
  Printf.printf
    "\n== Storage-fault lane: %d seeded media-fault schedules (seed %d, \
     scale %g) ==\n%!"
    schedules seed st_scale;
  let outcomes =
    Strip_chaos.Explore.explore_storage ~scale:st_scale ~seed ~schedules ()
  in
  Strip_chaos.Explore.print_summary outcomes;
  fail_on_violations outcomes
    ~file:(Printf.sprintf "quarantine_report_seed%d.json")
    ~report:Strip_chaos.Explore.quarantine_report;
  (* Salvage micro-comparison: one WAL bit-rot mid-run plus a crash later,
     scrubber on.  With replicas the scrubber splices clean bytes back
     (rung 1); without, it must take an emergency checkpoint and truncate
     the retained log (rung 2). *)
  let salvage_run replicas =
    Strip_txn.Task.reset_ids ();
    let cfg =
      Experiment.quick
        (Experiment.default_config
           (Experiment.Comp_view Comp_rules.Unique_on_comp) ~delay:0.5)
        st_scale
    in
    let dur = cfg.Experiment.feed.Strip_market.Feed.duration in
    let cfg =
      {
        cfg with
        Experiment.verify = true;
        storage = Some { Experiment.scrub_every = Some 1.0; retain = 2 };
        recovery = Some Experiment.default_recovery;
        repl =
          (if replicas > 0 then
             Some { Experiment.default_repl with Experiment.replicas }
           else None);
        chaos =
          [
            Experiment.Bitrot_at
              { at = 0.42 *. dur; target = `Wal; frac = 0.9 };
            Experiment.Crash_at (0.7 *. dur);
          ];
      }
    in
    let m = Experiment.run cfg in
    check_converged (Printf.sprintf "salvage run (replicas %d)" replicas) m;
    match m.Experiment.storage with
    | None -> fail "salvage run (replicas %d) has no storage metrics" replicas
    | Some st ->
      if st.Experiment.faults_outstanding > 0 || not st.Experiment.final_clean
      then
        fail
          "salvage run (replicas %d) left media faults behind (%d \
           outstanding, clean %b)"
          replicas st.Experiment.faults_outstanding st.Experiment.final_clean;
      (m.Experiment.registry, st)
  in
  Printf.printf
    "\nsalvage comparison: WAL bit-rot + later crash, scrubber every 1s\n%!";
  let reg_with, with_replicas = salvage_run 2 in
  let reg_without, without = salvage_run 0 in
  let describe tag (st : Experiment.storage_metrics) =
    Printf.printf
      "   %-16s repaired %d from replicas / %d from checkpoints; spliced \
       %dB, expunged %dB; salvage cpu %.1fms\n%!"
      tag st.Experiment.repaired_replica st.Experiment.repaired_checkpoint
      st.Experiment.scrub_salvaged_bytes st.Experiment.scrub_expunged_bytes
      (1e3 *. st.Experiment.salvage_s)
  in
  describe "replicas=2" with_replicas;
  describe "replicas=0" without;
  if with_replicas.Experiment.repaired_replica < 1 then
    fail "replicated salvage run never served a repair from a replica";
  if without.Experiment.repaired_checkpoint < 1 then
    fail "replica-free salvage run never fell back to the checkpoint rung";
  if
    with_replicas.Experiment.scrub_salvaged_bytes
    >= without.Experiment.scrub_expunged_bytes
  then
    fail
      "replica-served salvage (%dB spliced) did not beat checkpoint-based \
       repair (%dB of redo log destroyed)"
      with_replicas.Experiment.scrub_salvaged_bytes
      without.Experiment.scrub_expunged_bytes;
  write_lane "BENCH_PR9.json"
    ~params:(explore_params ~seed ~scale:st_scale ~schedules)
    ~results:
      [
        ( "violations",
          Json.Int (Strip_chaos.Explore.total_violations outcomes) );
        ( "salvage_comparison",
          Json.Obj
            [
              ("replicas_2", Report.storage_json reg_with with_replicas);
              ("replicas_0", Report.storage_json reg_without without);
              ( "replica_salvaged_bytes",
                Json.Int with_replicas.Experiment.scrub_salvaged_bytes );
              ( "checkpoint_expunged_bytes",
                Json.Int without.Experiment.scrub_expunged_bytes );
            ] );
      ]
    (List.map Strip_chaos.Explore.outcome_json outcomes)

(* ------------------------------------------------------------------ *)
(* PR 10: the shard sweep.  Partition the write path across 1/2/4/8
   shard primaries under the same de-rated CPU as the server sweep, so
   a single primary cannot keep up with the feed.  Base rows are
   hash-partitioned on symbol and every shard runs its own engine, WAL
   and checkpoints; composites whose members live on other shards are
   maintained through shipped weighted partial deltas, so the sweep
   exercises the full cross-shard protocol at every point beyond one
   shard, and only there.  The non-unique rule keeps total maintenance
   work fixed, so adding shard primaries must raise write throughput
   (updates applied per simulated second of makespan) monotonically —
   that is the gate — and the cross-shard composite audit must come
   back clean at every point.  Every point, including shards=1, carries
   a shard config and so runs under the coordinator: all pay identical
   durability and coordinator machinery and the sweep isolates
   partitioning itself. *)

let shard_sweep () =
  section "Shard sweep (partitioned write path, cross-shard composites)";
  let sh_scale = Float.min scale 0.05 in
  let run_at shards =
    let cfg =
      Experiment.default_config (Experiment.Comp_view Comp_rules.Non_unique)
        ~delay:0.0
    in
    let cfg = Experiment.quick cfg sh_scale in
    let cfg =
      {
        cfg with
        Experiment.cost = derated_cost;
        verify = true;
        shard = Some (Experiment.default_shard ~shards);
      }
    in
    let m = Experiment.run cfg in
    Report.print Report.[ Row; Sharding ] (Report.metrics_json m);
    check_converged (Printf.sprintf "%d-shard run" shards) m;
    let s =
      match m.Experiment.shard with
      | Some s -> s
      | None -> fail "%d-shard run has no shard metrics" shards
    in
    if s.Experiment.cross_divergences > 0 then
      fail "cross-shard audit divergent at %d shards (%d of %d composites)"
        shards s.Experiment.cross_divergences s.Experiment.cross_checks;
    if (s.Experiment.sh_partials > 0) <> (shards > 1) then
      fail "%d-shard run shipped %d partials (none at 1 shard, some beyond)"
        shards s.Experiment.sh_partials;
    (m, s)
  in
  Report.print_metrics_header ();
  let points = List.map run_at [ 1; 2; 4; 8 ] in
  let write_tput ((m : Experiment.metrics), _) =
    float_of_int m.Experiment.n_updates /. m.Experiment.makespan_s
  in
  check_monotone ~what:"write throughput (/s)"
    ~at:(fun (_, (s : Experiment.shard_metrics)) ->
      Printf.sprintf "%d shards" s.Experiment.n_shards)
    write_tput points;
  let point (((m : Experiment.metrics), (s : Experiment.shard_metrics)) as p) =
    Json.Obj
      [
        ("shards", Json.Int s.Experiment.n_shards);
        ("makespan_s", Json.Float m.Experiment.makespan_s);
        ("write_throughput_per_s", Json.Float (write_tput p));
        ("n_updates", Json.Int m.Experiment.n_updates);
        ("partials_shipped", Json.Int s.Experiment.sh_partials);
        ("msgs_sent", Json.Int s.Experiment.sh_msgs);
        ("bytes_shipped", Json.Int s.Experiment.sh_bytes);
        ("acks_sent", Json.Int s.Experiment.sh_acks);
        ("reships", Json.Int s.Experiment.sh_reships);
        ("cross_checks", Json.Int s.Experiment.cross_checks);
        ("cross_divergences", Json.Int s.Experiment.cross_divergences);
        ("audit_clean", Json.Bool (s.Experiment.cross_divergences = 0));
      ]
  in
  write_lane "BENCH_PR10.json"
    ~params:
      [ ("scale", Json.Float sh_scale); ("cost_slowdown", Json.Float slowdown) ]
    (List.map point points)

(* ------------------------------------------------------------------ *)
(* The wallclock lane: real elapsed time per simulated transaction for
   representative end-to-end scenarios.  The simulator reports virtual
   seconds everywhere else; this lane answers the orthogonal question
   "how fast does the harness itself run on this machine", so perf
   regressions in the engine/WAL/shipping code paths show up even though
   every simulated metric is deterministic.  Median of 5 runs per
   scenario; each trial rebuilds its config (fresh trace/monitor state)
   and resets the task/span counters, so trials are identical work. *)

let wallclock_lane () =
  section "Wall-clock scenarios (real ns per transaction, median of 5)";
  (* The lane measures the harness, not the allocator: a small default
     minor heap makes the timings mostly GC noise at this working-set
     size.  Pin a larger minor heap and a lazier major GC for the
     measurement process so trials see the code, and drain major-GC debt
     between trials so one trial's garbage is not another's pause.  The
     lane runs last, so no other lane sees these settings. *)
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 2 * 1024 * 1024; space_overhead = 256 };
  let wc_scale = Float.min scale 0.02 in
  let trials = 5 in
  let base rule delay =
    let cfg = Experiment.default_config rule ~delay in
    let cfg = Experiment.quick cfg wc_scale in
    { cfg with Experiment.verify = false }
  in
  let symbol = Experiment.Comp_view Comp_rules.Unique_on_symbol in
  let scenarios =
    [
      ( "non-unique",
        fun () -> base (Experiment.Comp_view Comp_rules.Non_unique) 0.0 );
      ("unique-on-symbol", fun () -> base symbol 1.0);
      ( "crash-recovery",
        fun () ->
          let cfg = base symbol 1.0 in
          let half = cfg.Experiment.feed.Strip_market.Feed.duration /. 2.0 in
          {
            cfg with
            Experiment.recovery =
              Some
                {
                  Experiment.default_recovery with
                  Experiment.crash_at = Some half;
                };
          } );
      ( "replicated-2",
        fun () ->
          {
            (base symbol 1.0) with
            Experiment.repl =
              Some { Experiment.default_repl with Experiment.replicas = 2 };
          } );
      ( "traced+slo",
        fun () ->
          {
            (base symbol 1.0) with
            Experiment.trace = Some (Strip_obs.Trace.create ());
            slo =
              Some
                (Strip_obs.Slo.create
                   [ { Strip_obs.Slo.view = "comp_prices"; bound_s = 5.0 } ]);
          } );
    ]
  in
  let time_one mk_cfg =
    Strip_txn.Task.reset_ids ();
    let cfg = mk_cfg () in
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let m = Experiment.run cfg in
    let elapsed_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    (elapsed_ns, m.Experiment.n_updates + m.Experiment.n_recompute)
  in
  let median l =
    match List.sort compare l with
    | [] -> nan
    | sorted -> List.nth sorted (List.length sorted / 2)
  in
  Printf.printf "%-20s %8s %14s %14s\n" "scenario" "txns" "median ns/op"
    "median ms/run";
  let row (name, mk_cfg) =
    let runs = List.init trials (fun _ -> time_one mk_cfg) in
    let ops = snd (List.hd runs) in
    let ns_per_op =
      List.map
        (fun (ns, n) -> if n = 0 then nan else ns /. float_of_int n)
        runs
    in
    let med = median ns_per_op in
    Printf.printf "%-20s %8d %14.0f %14.1f\n%!" name ops med
      (median (List.map fst runs) /. 1e6);
    Json.Obj
      [
        ("name", Json.Str name);
        ("transactions", Json.Int ops);
        ("median_ns_per_op", Json.Float med);
        ("ns_per_op", Json.List (List.map (fun v -> Json.Float v) ns_per_op));
      ]
  in
  write_lane "BENCH_WALLCLOCK.json"
    ~params:[ ("scale", Json.Float wc_scale); ("trials", Json.Int trials) ]
    (List.map row scenarios)

(* ------------------------------------------------------------------ *)
(* The lane table, in run order. *)

let lanes =
  [
    ("table1", bench_table1);
    ("figures", figures);
    ("ablations", ablations);
    ("sweep", server_sweep);
    ("robustness", robustness);
    ("recovery", recovery_sweep);
    ("replication", replica_sweep);
    ("chaos", chaos_lane);
    ("storage", storage_lane);
    ("shard", shard_sweep);
    ("wallclock", wallclock_lane);
  ]

let () =
  let names = List.map fst lanes in
  let chosen = ref (List.filter (( <> ) "wallclock") names) in
  let set flag v =
    match flag with
    | "--lane" ->
      chosen :=
        List.map
          (fun n ->
            if List.mem n names then n
            else
              usage_error "unknown lane %S; lanes are: %s" n
                (String.concat ", " names))
          (String.split_on_char ',' v)
    | "--trace" -> trace_file := Some v
    | _ -> metrics_file := Some v
  in
  let rec parse = function
    | [] -> ()
    | (("--lane" | "--trace" | "--metrics") as flag) :: rest -> (
      match rest with
      | v :: rest when v <> "" && v.[0] <> '-' ->
        set flag v;
        parse rest
      | _ -> usage_error "%s needs a value" flag)
    | a :: _ ->
      usage_error
        "unknown argument %S; usage: main.exe [--lane NAME[,NAME]] [--trace \
         FILE] [--metrics FILE]"
        a
  in
  parse (List.tl (Array.to_list Sys.argv));
  Printf.printf
    "STRIP reproduction benchmarks (paper: Adelberg, Garcia-Molina, Widom, \
     SIGMOD 1997)\n";
  List.iter
    (fun (name, run) ->
      if List.mem name !chosen then begin
        lane := name;
        run ()
      end)
    lanes;
  if observing () then write_exports ()
