(* Observability subsystem: histograms, trace ring buffer, metrics
   registry, totality guards, staleness sampling, and export determinism. *)

open Strip_obs

let gamma = sqrt (sqrt 2.0)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_hist_bucket_boundaries () =
  let h = Histogram.create () in
  (* Samples on and around an exact bucket edge must land in a bucket
     whose [lo, hi) really contains them. *)
  let samples = [ 1.0; gamma; gamma ** 2.0; 0.999; 1.001; 123.456; 1e-9 ] in
  List.iter (Histogram.add h) samples;
  let buckets = Histogram.buckets h in
  Alcotest.(check int) "every sample counted" (List.length samples)
    (List.fold_left (fun a (_, _, c) -> a + c) 0 buckets);
  List.iter
    (fun v ->
      let held =
        List.exists (fun (lo, hi, _) -> lo <= v && v < hi) buckets
      in
      Alcotest.(check bool) (Printf.sprintf "%g inside its bucket" v) true held)
    samples;
  (* ascending and disjoint *)
  let rec check_sorted = function
    | (_, hi1, _) :: ((lo2, _, _) :: _ as rest) ->
      Alcotest.(check bool) "buckets ascending and disjoint" true (hi1 <= lo2);
      check_sorted rest
    | _ -> ()
  in
  check_sorted buckets

let test_hist_percentiles_known () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum exact" 500500.0 (Histogram.sum h);
  Alcotest.(check (float 1e-6)) "mean exact" 500.5 (Histogram.mean h);
  Alcotest.(check (float 1e-6)) "min exact" 1.0 (Histogram.min_value h);
  Alcotest.(check (float 1e-6)) "max exact" 1000.0 (Histogram.max_value h);
  (* Quantiles of U{1..1000}: bounded by the bucket width (gamma - 1 ~ 9%)
     plus nearest-rank granularity. *)
  let within p expected =
    let v = Histogram.percentile h p in
    let rel = Float.abs (v -. expected) /. expected in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f=%.1f within 10%% of %.0f" p v expected)
      true (rel <= 0.10)
  in
  within 50.0 500.0;
  within 90.0 900.0;
  within 99.0 990.0;
  let p100 = Histogram.percentile h 100.0 in
  Alcotest.(check bool) "p100 inside the top bucket, never above max" true
    (p100 >= Histogram.percentile h 99.0 && p100 <= Histogram.max_value h);
  (* monotone in p *)
  Alcotest.(check bool) "p50 <= p90 <= p99" true
    (Histogram.percentile h 50.0 <= Histogram.percentile h 90.0
    && Histogram.percentile h 90.0 <= Histogram.percentile h 99.0)

let test_hist_empty_and_underflow () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Histogram.mean h);
  Alcotest.(check (float 0.0)) "empty min" 0.0 (Histogram.min_value h);
  Alcotest.(check (float 0.0)) "empty max" 0.0 (Histogram.max_value h);
  Alcotest.(check (float 0.0)) "empty p99" 0.0 (Histogram.percentile h 99.0);
  Histogram.add h 0.0;
  Histogram.add h (-5.0);
  Histogram.add h Float.nan;
  Alcotest.(check int) "underflow counted" 3 (Histogram.count h);
  (match Histogram.buckets h with
  | [ (0.0, 0.0, 3) ] -> ()
  | _ -> Alcotest.fail "expected a single underflow bucket (0, 0, 3)");
  Alcotest.(check (float 0.0)) "all-underflow p50 is 0" 0.0
    (Histogram.percentile h 50.0)

let test_hist_percentile_edges () =
  (* Empty: every percentile is 0, never NaN/inf. *)
  let e = Histogram.create () in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "empty p%.0f" p)
        0.0
        (Histogram.percentile e p))
    [ 0.0; 50.0; 100.0 ];
  (* Single sample: every percentile collapses onto it (clamped to the
     observed range, so exact despite bucketing). *)
  let s = Histogram.create () in
  Histogram.add s 7.25;
  List.iter
    (fun p ->
      let v = Histogram.percentile s p in
      Alcotest.(check bool)
        (Printf.sprintf "single-sample p%.1f finite" p)
        true (Float.is_finite v);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single-sample p%.1f" p)
        7.25 v)
    [ 0.0; 50.0; 99.9; 100.0 ];
  (* p = 100.0 on a multi-sample histogram: finite and never above max. *)
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0.001; 3.0; 9000.0 ];
  let p100 = Histogram.percentile h 100.0 in
  Alcotest.(check bool) "p100 finite" true (Float.is_finite p100);
  Alcotest.(check bool) "p100 <= max" true (p100 <= Histogram.max_value h);
  (* out-of-range p is clamped, not an excursion into garbage ranks *)
  Alcotest.(check (float 1e-9)) "p>100 clamps to p100" p100
    (Histogram.percentile h 150.0);
  Alcotest.(check bool) "p<0 clamps to p0" true
    (Float.is_finite (Histogram.percentile h (-5.0)))

let test_hist_all_nan_bounds () =
  (* Regression: a histogram fed only NaN used to report min = +inf and
     max = -inf (n > 0 but the bounds never updated); summaries exported
     non-finite JSON. *)
  let h = Histogram.create () in
  Histogram.add h Float.nan;
  Histogram.add h Float.nan;
  Alcotest.(check int) "NaN samples counted" 2 (Histogram.count h);
  Alcotest.(check (float 0.0)) "all-NaN min is 0" 0.0 (Histogram.min_value h);
  Alcotest.(check (float 0.0)) "all-NaN max is 0" 0.0 (Histogram.max_value h);
  let s = Histogram.summary h in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v))
    [
      ("mean", s.Histogram.mean);
      ("min", s.Histogram.min);
      ("max", s.Histogram.max);
      ("p50", s.Histogram.p50);
      ("p99", s.Histogram.p99);
    ];
  (* once a real sample arrives the bounds recover *)
  Histogram.add h 4.0;
  Alcotest.(check (float 1e-9)) "real min after NaNs" 4.0
    (Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "real max after NaNs" 4.0
    (Histogram.max_value h)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1.0; 2.0 ];
  List.iter (Histogram.add b) [ 100.0; 200.0 ];
  Histogram.merge_into ~dst:a b;
  Alcotest.(check int) "merged count" 4 (Histogram.count a);
  Alcotest.(check (float 1e-6)) "merged max" 200.0 (Histogram.max_value a);
  Alcotest.(check (float 1e-6)) "merged min" 1.0 (Histogram.min_value a);
  let coarse = Histogram.create ~gamma:2.0 () in
  Alcotest.check_raises "gamma mismatch"
    (Invalid_argument "Histogram.merge_into: gamma mismatch") (fun () ->
      Histogram.merge_into ~dst:coarse a);
  (* Regression: merging an empty histogram either way must not disturb
     the non-empty side's bounds (the empty side's sentinels are
     lo = +inf / hi = -inf). *)
  let empty = Histogram.create () in
  Histogram.merge_into ~dst:a empty;
  Alcotest.(check int) "empty src adds nothing" 4 (Histogram.count a);
  Alcotest.(check (float 1e-6)) "min survives empty merge" 1.0
    (Histogram.min_value a);
  Alcotest.(check (float 1e-6)) "max survives empty merge" 200.0
    (Histogram.max_value a);
  let fresh = Histogram.create () in
  Histogram.merge_into ~dst:fresh a;
  Alcotest.(check int) "merge into empty dst" 4 (Histogram.count fresh);
  Alcotest.(check (float 1e-6)) "empty dst takes src min" 1.0
    (Histogram.min_value fresh);
  Alcotest.(check (float 1e-6)) "empty dst takes src max" 200.0
    (Histogram.max_value fresh)

let test_hist_merge_list () =
  let mk vs =
    let h = Histogram.create () in
    List.iter (Histogram.add h) vs;
    h
  in
  let a = mk [ 1.0; 2.0 ] and b = mk [ 10.0 ] and c = mk [] in
  let m = Histogram.merge [ a; b; c ] in
  Alcotest.(check int) "merged count" 3 (Histogram.count m);
  Alcotest.(check (float 1e-6)) "merged max" 10.0 (Histogram.max_value m);
  (* sources untouched *)
  Alcotest.(check int) "source a untouched" 2 (Histogram.count a);
  Alcotest.(check int) "empty merge is empty" 0
    (Histogram.count (Histogram.merge []));
  (* the cluster-percentile use case: merged p-quantiles bracket sources *)
  Alcotest.(check bool) "merged p99 >= each source p99" true
    (Histogram.percentile m 99.0 >= Histogram.percentile a 99.0
    && Histogram.percentile m 99.0 >= Histogram.percentile b 99.0)

(* ------------------------------------------------------------------ *)
(* Trace ring buffer *)

let test_trace_ring_overflow_and_order () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.instant t ~ts:(float_of_int i) (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "length capped" 4 (Trace.length t);
  Alcotest.(check int) "dropped counted" 2 (Trace.dropped t);
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events t) in
  Alcotest.(check (list string)) "oldest dropped, order kept"
    [ "e3"; "e4"; "e5"; "e6" ] names;
  let seqs = List.map (fun (e : Trace.event) -> e.Trace.seq) (Trace.events t) in
  Alcotest.(check (list int)) "seq numbers global" [ 2; 3; 4; 5 ] seqs;
  Trace.clear t;
  Alcotest.(check int) "clear empties" 0 (Trace.length t)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_trace_chrome_export () =
  let t = Trace.create () in
  Trace.instant t ~ts:1.5 ~tid:Trace.tid_update ~args:[ ("k", Trace.Int 7) ] "ev";
  Trace.complete t ~ts:2.0 ~dur_us:250.0 ~tid:Trace.tid_recompute "span";
  let s = Json.to_string (Trace.chrome_json t) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "export contains %s" needle) true
        (contains s needle))
    [
      "\"traceEvents\"";
      "\"process_name\"";
      "\"thread_name\"";
      (* 1.5 simulated seconds -> 1.5e6 trace microseconds *)
      "\"ts\":1500000";
      "\"ph\":\"X\"";
      "\"dur\":250";
      "\"k\":7";
    ]

(* ------------------------------------------------------------------ *)
(* Span contexts *)

let test_span_contexts () =
  Span.reset_ids ();
  let root = Span.mint () in
  Alcotest.(check bool) "root: trace = span" true
    (root.Span.trace = root.Span.span);
  Alcotest.(check int) "root: no parent" 0 root.Span.parent;
  let c1 = Span.child root in
  let c2 = Span.child root in
  Alcotest.(check int) "child keeps trace" root.Span.trace c1.Span.trace;
  Alcotest.(check int) "child parents to root" root.Span.span c1.Span.parent;
  Alcotest.(check bool) "sibling spans distinct" true
    (c1.Span.span <> c2.Span.span);
  let g = Span.child c1 in
  Alcotest.(check int) "grandchild keeps trace" root.Span.trace g.Span.trace;
  Alcotest.(check int) "grandchild parents to child" c1.Span.span g.Span.parent;
  (* args round-trip: what a trace event carries reconstructs the ctx *)
  (match Span.of_args (Span.args g) with
  | Some back ->
    Alcotest.(check bool) "args round-trip" true
      (back.Span.trace = g.Span.trace
      && back.Span.span = g.Span.span
      && back.Span.parent = g.Span.parent)
  | None -> Alcotest.fail "of_args lost the context");
  Alcotest.(check (option reject)) "of_args on unrelated args" None
    (Span.of_args [ ("k", Trace.Int 7) ]);
  (* remote linkage (WAL note -> replica apply) *)
  let r = Span.child_of ~trace:g.Span.trace ~parent:g.Span.span in
  Alcotest.(check int) "child_of keeps trace" g.Span.trace r.Span.trace;
  Alcotest.(check int) "child_of parents to span" g.Span.span r.Span.parent;
  Span.reset_ids ();
  let again = Span.mint () in
  Alcotest.(check int) "reset restarts ids" root.Span.trace again.Span.trace

(* ------------------------------------------------------------------ *)
(* Staleness SLO monitor *)

let test_slo_parse () =
  (match Slo.parse "comp_prices:2.5" with
  | Ok o ->
    Alcotest.(check string) "view" "comp_prices" o.Slo.view;
    Alcotest.(check (float 0.0)) "bound" 2.5 o.Slo.bound_s
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Ok _ -> Alcotest.fail (bad ^ " should not parse")
      | Error _ -> ())
    [ ""; "comp_prices"; "comp_prices:"; ":1.0"; "comp_prices:-1"; "v:abc" ]

let test_slo_windows () =
  let t =
    Slo.create
      [
        { Slo.view = "a"; bound_s = 1.0 }; { Slo.view = "b"; bound_s = 10.0 };
      ]
  in
  (* a: ok, viol, viol, ok, viol (left open; finish closes it) *)
  Slo.observe t ~view:"a" ~staleness_s:0.5 ~now:1.0;
  Slo.observe t ~view:"a" ~staleness_s:2.0 ~now:2.0;
  Slo.observe t ~view:"a" ~staleness_s:3.0 ~now:3.0;
  Slo.observe t ~view:"a" ~staleness_s:0.2 ~now:4.0;
  Slo.observe t ~view:"a" ~staleness_s:5.0 ~now:5.0;
  (* b never violates; unknown views are ignored *)
  Slo.observe t ~view:"b" ~staleness_s:1.0 ~now:1.0;
  Slo.observe t ~view:"unmonitored" ~staleness_s:99.0 ~now:1.0;
  Slo.finish t;
  (match Slo.report t with
  | [ ra; rb ] ->
    Alcotest.(check string) "objective order" "a" ra.Slo.r_view;
    Alcotest.(check int) "a samples" 5 ra.Slo.r_samples;
    Alcotest.(check int) "a violations" 3 ra.Slo.r_violations;
    Alcotest.(check int) "a windows" 2 ra.Slo.r_windows;
    Alcotest.(check (float 1e-9)) "a worst" 5.0 ra.Slo.r_worst_s;
    Alcotest.(check bool) "a not met" false ra.Slo.r_met;
    Alcotest.(check int) "b samples" 1 rb.Slo.r_samples;
    Alcotest.(check bool) "b met" true rb.Slo.r_met
  | rs -> Alcotest.fail (Printf.sprintf "%d reports" (List.length rs)));
  Alcotest.(check bool) "monitor not met overall" false (Slo.met t);
  Alcotest.(check int) "total violations" 3 (Slo.total_violations t);
  Alcotest.(check int) "total windows" 2 (Slo.total_windows t)

(* ------------------------------------------------------------------ *)
(* Provenance ring *)

let test_provenance_ring_truncation () =
  let p = Provenance.create ~capacity:3 () in
  let entry i key =
    {
      Provenance.view = "v";
      key;
      rule = "r";
      task_id = i;
      txid = i;
      trace = 0;
      span = 0;
      committed_at = float_of_int i;
      inputs = [ { Provenance.src_table = "d"; src_desc = "row" } ];
    }
  in
  for i = 1 to 5 do
    Provenance.record p (entry i "k")
  done;
  Alcotest.(check int) "total counts every record" 5 (Provenance.total p);
  Alcotest.(check int) "ring truncated oldest" 2 (Provenance.truncated p);
  let got = Provenance.query p ~view:"v" ~key:"k" in
  Alcotest.(check (list int)) "newest first, bounded" [ 5; 4; 3 ]
    (List.map (fun (e : Provenance.entry) -> e.Provenance.task_id) got);
  (* per-view rings: another view does not steal capacity *)
  Provenance.record p { (entry 6 "other") with Provenance.view = "w" };
  Alcotest.(check int) "v ring untouched" 3
    (List.length (Provenance.query p ~view:"v" ~key:"k"));
  Alcotest.(check (list string)) "views listed" [ "v" ]
    (List.filter (fun v -> v = "v") (Provenance.views p));
  Alcotest.(check bool) "render shows the firing" true
    (contains (Provenance.render p ~view:"v" ~key:"k") "task 5")

(* ------------------------------------------------------------------ *)
(* Merged cluster traces *)

let test_trace_merge_chrome () =
  let mk name ts =
    let t = Trace.create () in
    Trace.instant t ~ts ~args:[ ("n", Trace.Str name) ] ("ev-" ^ name);
    t
  in
  let j =
    Trace.merge_chrome_json
      [ ("primary", mk "primary" 1.0); ("replica-0", mk "replica-0" 2.0) ]
  in
  let s = Json.to_string j in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "merged contains %s" needle) true
        (contains s needle))
    [
      "\"traceEvents\"";
      "\"primary\"";
      "\"replica-0\"";
      "\"pid\":1";
      "\"pid\":2";
      "ev-primary";
      "ev-replica-0";
    ]

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_duplicate_identity () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "c" ~labels:[ ("a", "1"); ("b", "2") ]);
  (* same name, same labels in a different order: same identity *)
  Alcotest.check_raises "label order canonicalised"
    (Metrics.Duplicate "c{a=1,b=2}") (fun () ->
      ignore (Metrics.counter reg "c" ~labels:[ ("b", "2"); ("a", "1") ]));
  (* different labels: fine *)
  ignore (Metrics.counter reg "c" ~labels:[ ("a", "2") ]);
  ignore (Metrics.gauge reg "g");
  Alcotest.check_raises "gauge name collides" (Metrics.Duplicate "g") (fun () ->
      Metrics.probe_int reg "g" (fun () -> 0))

let test_metrics_snapshot_and_find () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "requests" ~labels:[ ("class", "update") ] in
  Metrics.inc c;
  Metrics.inc ~n:2 c;
  let g = Metrics.gauge reg "depth" in
  Metrics.set g 3.5;
  let h = Metrics.histogram reg "lat" in
  List.iter (Histogram.add h) [ 1.0; 10.0; 100.0 ];
  Metrics.probe_int reg "polled" (fun () -> 42);
  let rows = Metrics.snapshot reg in
  (* sorted by (name, labels) *)
  let names = List.map (fun (r : Metrics.row) -> r.Metrics.name) rows in
  Alcotest.(check (list string)) "sorted"
    [ "depth"; "lat"; "polled"; "requests" ] names;
  (match Metrics.find rows "requests" ~labels:[ ("class", "update") ] with
  | Some (Metrics.Int 3) -> ()
  | _ -> Alcotest.fail "counter value");
  (match Metrics.find rows "polled" with
  | Some (Metrics.Int 42) -> ()
  | _ -> Alcotest.fail "probe polled at snapshot");
  (match Metrics.find rows "lat" with
  | Some (Metrics.Histo (s, _)) -> Alcotest.(check int) "hist count" 3 s.Histogram.n
  | _ -> Alcotest.fail "histogram row");
  let csv = Metrics.csv_of_rows rows in
  (match String.split_on_char '\n' csv with
  | header :: _ ->
    Alcotest.(check string) "csv header"
      "name,labels,type,value,count,sum,mean,min,max,p50,p90,p99" header
  | [] -> Alcotest.fail "empty csv");
  (* families collide with fixed rows only at snapshot time *)
  Metrics.probe_family reg "depth" (fun () -> [ ([], Metrics.Sample_int 1) ]);
  Alcotest.check_raises "family collision detected" (Metrics.Duplicate "depth")
    (fun () -> ignore (Metrics.snapshot reg))

(* Snapshots of several registries merged under a [shard] label keep
   their labels canonical, so [find] sees each shard's rows and
   [find_all ~across] sees them all. *)
let test_metrics_tagged () =
  let shard n =
    let reg = Metrics.create () in
    Metrics.inc ~n (Metrics.counter reg "tasks" ~labels:[ ("class", "update") ]);
    Metrics.snapshot reg
  in
  let rows = Metrics.tagged "shard" [ shard 3; shard 4 ] in
  Alcotest.(check (list (list (pair string string)))) "labels canonical"
    [ [ ("class", "update"); ("shard", "0") ]; [ ("class", "update"); ("shard", "1") ] ]
    (List.map (fun (r : Metrics.row) -> r.Metrics.labels) rows);
  (match
     Metrics.find rows "tasks" ~labels:[ ("shard", "1"); ("class", "update") ]
   with
  | Some (Metrics.Int 4) -> ()
  | _ -> Alcotest.fail "one shard's row");
  let ints ?labels () =
    List.map
      (function Metrics.Int i -> i | _ -> Alcotest.fail "counter")
      (Metrics.find_all rows ?labels ~across:"shard" "tasks")
  in
  Alcotest.(check (list int)) "every shard" [ 3; 4 ]
    (ints ~labels:[ ("class", "update") ] ());
  Alcotest.(check (list int)) "a named shard" [ 3 ]
    (ints ~labels:[ ("class", "update"); ("shard", "0") ] ());
  Alcotest.(check (list int)) "other labels still match" [] (ints ())

(* Integer label values sort as numbers: twelve shards' rows come back
   in shard order, 10 and 11 after 9.  Other values sort as strings,
   after the integers. *)
let test_metrics_numeric_labels () =
  let shard i =
    let reg = Metrics.create () in
    Metrics.inc ~n:i (Metrics.counter reg "tasks");
    Metrics.snapshot reg
  in
  let rows = Metrics.tagged "shard" (List.init 12 shard) in
  Alcotest.(check (list int)) "shards in numeric order" (List.init 12 Fun.id)
    (List.map
       (fun (r : Metrics.row) ->
         match r.Metrics.datum with Metrics.Int i -> i | _ -> Alcotest.fail "counter")
       rows);
  let reg = Metrics.create () in
  List.iter
    (fun n -> ignore (Metrics.counter reg "c" ~labels:[ ("node", n) ]))
    [ "n2"; "n10"; "10"; "1a"; "9" ];
  Alcotest.(check (list string)) "other values sort as strings"
    [ "9"; "10"; "1a"; "n10"; "n2" ]
    (List.map
       (fun (r : Metrics.row) -> List.assoc "node" r.Metrics.labels)
       (Metrics.snapshot reg))

(* ------------------------------------------------------------------ *)
(* Stats totality guards *)

let test_stats_totality () =
  let open Strip_sim in
  let s = Stats.create () in
  let finite v = Float.is_finite v in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " finite") true (finite v);
      Alcotest.(check (float 0.0)) (name ^ " zero") 0.0 v)
    [
      ("utilization (zero duration)", Stats.utilization s ~duration_s:0.0);
      ("utilization (negative duration)", Stats.utilization s ~duration_s:(-1.0));
      ("mean service", Stats.mean_service_us s Strip_txn.Task.Recompute);
      ("mean queue", Stats.mean_queue_us s Strip_txn.Task.Update);
      ("max service", Stats.max_service_us s Strip_txn.Task.Background);
      ("p99 service", Stats.service_percentile_us s Strip_txn.Task.Recompute 99.0);
      ("p50 queue", Stats.queue_percentile_us s Strip_txn.Task.Update 50.0);
      ("mean recovery", Stats.mean_recovery_s s);
    ]

(* ------------------------------------------------------------------ *)
(* Staleness sampling and export determinism (full pipeline) *)

let small_cfg () =
  let open Strip_pta in
  let cfg =
    Experiment.default_config
      (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0
  in
  Experiment.quick cfg 0.02

let test_staleness_sampled () =
  let open Strip_pta in
  let m = Experiment.run (small_cfg ()) in
  let tables = List.map fst m.Experiment.staleness in
  Alcotest.(check (list string)) "derived table sampled" [ "comp_prices" ] tables;
  let s = List.assoc "comp_prices" m.Experiment.staleness in
  Alcotest.(check int) "one sample per maintenance commit"
    m.Experiment.n_recompute s.Histogram.n;
  (* With a 1 s delay window the oldest folded-in change is ~1 s old at
     commit: the mean sits near the window, and nothing is negative. *)
  Alcotest.(check bool) "mean near the delay window" true
    (s.Histogram.mean >= 0.5 && s.Histogram.mean <= 2.0);
  Alcotest.(check bool) "min non-negative" true (s.Histogram.min >= 0.0);
  Alcotest.(check bool) "p50 <= p99 <= max" true
    (s.Histogram.p50 <= s.Histogram.p99 && s.Histogram.p99 <= s.Histogram.max);
  (* the registry carries the same distribution *)
  match
    Strip_obs.Metrics.find m.Experiment.registry "staleness_s"
      ~labels:[ ("table", "comp_prices") ]
  with
  | Some (Metrics.Histo (rs, _)) ->
    Alcotest.(check int) "registry row matches" s.Histogram.n rs.Histogram.n
  | _ -> Alcotest.fail "staleness_s{table=comp_prices} missing from registry"

let run_traced () =
  let open Strip_pta in
  (* Task ids appear in trace args; reset them so an in-process re-run is
     byte-identical (safe here: no tasks are queued between experiments). *)
  Strip_txn.Task.reset_ids ();
  let tr = Trace.create () in
  let cfg = { (small_cfg ()) with Experiment.trace = Some tr } in
  let m = Experiment.run cfg in
  let trace_str = Json.to_string (Trace.chrome_json tr) in
  let metrics_str =
    Json.to_string (Metrics.json_of_rows m.Experiment.registry)
  in
  let report_str = Json.to_string (Report.metrics_json m) in
  (trace_str, metrics_str, report_str)

let test_fixed_seed_determinism () =
  let t1, m1, r1 = run_traced () in
  let t2, m2, r2 = run_traced () in
  Alcotest.(check bool) "trace export non-trivial" true
    (String.length t1 > 1000);
  Alcotest.(check string) "byte-identical traces" t1 t2;
  Alcotest.(check string) "byte-identical metrics" m1 m2;
  Alcotest.(check string) "byte-identical reports" r1 r2

let test_trace_has_lifecycle_vocabulary () =
  let open Strip_pta in
  Strip_txn.Task.reset_ids ();
  let tr = Trace.create () in
  let cfg = { (small_cfg ()) with Experiment.trace = Some tr } in
  ignore (Experiment.run cfg);
  let names =
    List.fold_left
      (fun acc (e : Trace.event) ->
        if List.mem e.Trace.name acc then acc else e.Trace.name :: acc)
      [] (Trace.events tr)
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " events present") true
        (List.mem expected names))
    [ "enqueue"; "release"; "commit"; "merge" ]

(* ------------------------------------------------------------------ *)
(* Report rows: a count only the report prints is read from the run's
   registry snapshot, and a missing row fails the rendering.  Rendering
   every section for every topology therefore checks that each row the
   report reads is registered. *)

let report_configs () =
  let open Strip_pta in
  let cfg = small_cfg () in
  let half = cfg.Experiment.feed.Strip_market.Feed.duration /. 2.0 in
  let replicated =
    Some { Experiment.default_repl with Experiment.replicas = 2; read_rate = 20.0 }
  in
  let crash =
    {
      cfg with
      Experiment.recovery =
        Some { Experiment.default_recovery with crash_at = Some half };
    }
  in
  let comp =
    Experiment.quick
      (Experiment.default_config
         (Experiment.Comp_view Comp_rules.Unique_on_comp) ~delay:1.0)
      0.02
  in
  [
    ("plain", cfg);
    ("crash", crash);
    ("failover", { crash with Experiment.repl = replicated });
    ( "storage-chaos",
      {
        cfg with
        Experiment.repl = replicated;
        chaos =
          [
            Experiment.Bitrot_at { at = 0.8 *. half; target = `Wal; frac = 0.5 };
            Experiment.Crash_at (1.4 *. half);
          ];
      } );
    ( "sharded-crash",
      {
        comp with
        Experiment.shard =
          Some
            {
              (Experiment.default_shard ~shards:3) with
              Experiment.shard_crash_at = Some (1, half);
            };
      } );
  ]

let test_report_rows_registered () =
  let open Strip_pta in
  List.iter
    (fun (name, cfg) ->
      Strip_txn.Task.reset_ids ();
      let m = Experiment.run cfg in
      let sections =
        [
          ("recovery", m.Experiment.recovery <> None);
          ("replication", m.Experiment.repl <> None);
          ("storage", m.Experiment.storage <> None);
          ("sharding", m.Experiment.shard <> None);
        ]
      in
      let expected =
        match name with
        | "plain" -> []
        | "crash" -> [ "recovery" ]
        | "failover" -> [ "recovery"; "replication" ]
        | "storage-chaos" -> [ "recovery"; "replication"; "storage" ]
        | _ -> [ "recovery"; "sharding" ]
      in
      Alcotest.(check (list string))
        (name ^ ": report sections present")
        expected
        (List.filter_map (fun (s, on) -> if on then Some s else None) sections);
      let render () = Report.print Report.sections (Report.metrics_json m) in
      match render () with
      | () -> ()
      | exception Failure msg -> Alcotest.failf "%s: %s" name msg)
    (report_configs ())

let suite =
  [
    ( "obs/histogram",
      [
        Alcotest.test_case "bucket boundaries" `Quick test_hist_bucket_boundaries;
        Alcotest.test_case "percentiles vs uniform 1..1000" `Quick
          test_hist_percentiles_known;
        Alcotest.test_case "empty and underflow" `Quick
          test_hist_empty_and_underflow;
        Alcotest.test_case "percentile edge cases" `Quick
          test_hist_percentile_edges;
        Alcotest.test_case "all-NaN bounds stay finite" `Quick
          test_hist_all_nan_bounds;
        Alcotest.test_case "merge" `Quick test_hist_merge;
        Alcotest.test_case "merge list (cluster aggregation)" `Quick
          test_hist_merge_list;
      ] );
    ( "obs/trace",
      [
        Alcotest.test_case "ring overflow and ordering" `Quick
          test_trace_ring_overflow_and_order;
        Alcotest.test_case "chrome export" `Quick test_trace_chrome_export;
        Alcotest.test_case "merged cluster export" `Quick
          test_trace_merge_chrome;
      ] );
    ( "obs/span",
      [
        Alcotest.test_case "mint/child/args round-trip" `Quick
          test_span_contexts;
      ] );
    ( "obs/slo",
      [
        Alcotest.test_case "parse VIEW:BOUND" `Quick test_slo_parse;
        Alcotest.test_case "violation windows" `Quick test_slo_windows;
      ] );
    ( "obs/provenance",
      [
        Alcotest.test_case "ring truncation at bound" `Quick
          test_provenance_ring_truncation;
      ] );
    ( "obs/metrics",
      [
        Alcotest.test_case "duplicate identity" `Quick
          test_metrics_duplicate_identity;
        Alcotest.test_case "snapshot, find, csv" `Quick
          test_metrics_snapshot_and_find;
        Alcotest.test_case "tagged snapshots, find_all" `Quick
          test_metrics_tagged;
        Alcotest.test_case "integer labels sort as numbers" `Quick
          test_metrics_numeric_labels;
      ] );
    ( "obs/integration",
      [
        Alcotest.test_case "stats accessors are total" `Quick
          test_stats_totality;
        Alcotest.test_case "staleness sampled at commit" `Quick
          test_staleness_sampled;
        Alcotest.test_case "fixed-seed export determinism" `Quick
          test_fixed_seed_determinism;
        Alcotest.test_case "lifecycle event vocabulary" `Quick
          test_trace_has_lifecycle_vocabulary;
        Alcotest.test_case "every row the report reads is registered" `Slow
          test_report_rows_registered;
      ] );
  ]
