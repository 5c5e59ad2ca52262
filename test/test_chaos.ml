(* Chaos explorer: seeded schedule generation, JSON round-trips (via the
   observability parser), the invariant checker, and delta-debugging a
   planted violation down to a 1-minimal replayable reproducer. *)

open Strip_pta
open Strip_chaos

(* ------------------------------------------------------------------ *)
(* Json.parse: the read side of the observability JSON dialect *)

let test_json_parse () =
  let open Strip_obs in
  Alcotest.(check bool) "integer" true (Json.parse "42" = Json.Int 42);
  Alcotest.(check bool) "negative integer" true
    (Json.parse "-7" = Json.Int (-7));
  Alcotest.(check bool) "exponent parses as float" true
    (Json.parse "-3.5e2" = Json.Float (-350.0));
  Alcotest.(check bool) "string escapes decode" true
    (Json.parse "\"a\\nb\\\"c\"" = Json.Str "a\nb\"c");
  Alcotest.(check bool) "null, bools, nesting" true
    (Json.parse "{\"a\": [1, 2.5, null, true], \"b\": {}}"
    = Json.Obj
        [
          ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null; Json.Bool true ]);
          ("b", Json.Obj []);
        ]);
  let j = Json.parse "{\"n\": 3, \"x\": 1.5}" in
  Alcotest.(check (option int)) "member + to_int" (Some 3)
    (Option.bind (Json.member "n" j) Json.to_int);
  Alcotest.(check (option (float 1e-9))) "ints widen to float" (Some 3.0)
    (Option.bind (Json.member "n" j) Json.to_float);
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (Json.member "z" j) Json.to_int);
  let rejects s =
    match Json.parse s with exception Json.Parse_error _ -> true | _ -> false
  in
  Alcotest.(check bool) "truncated object rejected" true (rejects "{\"a\": 1");
  Alcotest.(check bool) "trailing garbage rejected" true (rejects "1 2");
  Alcotest.(check bool) "bare word rejected" true (rejects "chaos");
  (* everything the writer emits, the reader accepts *)
  let doc =
    Json.Obj
      [
        ("s", Json.Str "he said \"no\"\n");
        ("f", Json.Float 0.125);
        ("l", Json.List [ Json.Int 1; Json.Obj [ ("k", Json.Null) ] ]);
      ]
  in
  Alcotest.(check bool) "writer output round-trips" true
    (Json.parse (Json.to_string doc) = doc)

(* ------------------------------------------------------------------ *)
(* Schedule: pure generation and exact serialized round-trips *)

let test_generate_deterministic () =
  let a = Schedule.generate ~seed:11 () in
  Alcotest.(check bool) "pure in the seed" true
    (a = Schedule.generate ~seed:11 ());
  let n = List.length a.Schedule.events in
  Alcotest.(check bool) "2-5 events" true (n >= 2 && n <= 5);
  let times = List.map Experiment.chaos_event_time a.Schedule.events in
  Alcotest.(check bool) "sorted by fire time" true
    (times = List.sort Float.compare times);
  let d =
    Strip_market.Feed.default_config.Strip_market.Feed.duration
    *. a.Schedule.scale
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "inside the middle 80% of the feed" true
        (t >= 0.1 *. d && t <= 0.9 *. d))
    times;
  Alcotest.(check bool) "a different seed draws differently" true
    (Schedule.generate ~seed:12 () <> a)

let test_schedule_roundtrip () =
  for seed = 0 to 9 do
    let s = Schedule.generate ~seed () in
    let written = Schedule.to_string s in
    let s' = Schedule.of_string written in
    (* the serialized form is a fixed point: a reproducer written to
       disk re-reads and re-writes byte-identically *)
    Alcotest.(check string)
      (Printf.sprintf "seed %d serialization is stable" seed)
      written (Schedule.to_string s');
    Alcotest.(check int)
      (Printf.sprintf "seed %d keeps its events" seed)
      (List.length s.Schedule.events)
      (List.length s'.Schedule.events);
    Alcotest.(check string)
      (Printf.sprintf "seed %d describes identically" seed)
      (Schedule.describe s) (Schedule.describe s')
  done;
  let rejects s =
    match Schedule.of_string s with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing events rejected" true
    (rejects "{\"seed\": 1, \"scale\": 0.05}");
  Alcotest.(check bool) "unknown event kind rejected" true
    (rejects
       "{\"seed\": 1, \"scale\": 0.05, \"events\": [{\"kind\": \"meteor\", \
        \"at\": 1.0}]}")

let test_schedule_window_boundary_roundtrip () =
  (* Regression: fault windows are half-open [at, until).  A reproducer
     that round-trips through JSON must keep its edges bit-exact, and a
     link armed from the round-tripped schedule must still deliver the
     send stamped exactly at the healing edge. *)
  let open Strip_repl in
  let s =
    {
      Schedule.seed = 1;
      scale = 0.05;
      events =
        [
          Experiment.Partition_at { at = 1.0; heal_after_s = 1.0 };
          Experiment.Drop_burst { at = 3.0; until_s = 4.0; rate = 1.0 };
        ];
    }
  in
  let s' = Schedule.of_string (Schedule.to_string s) in
  Alcotest.(check bool) "edges survive the round-trip bit-exact" true
    (s'.Schedule.events = s.Schedule.events);
  let arm events =
    let l = Link.create { Link.default_config with drop_rate = 0.0 } in
    List.iter
      (function
        | Experiment.Partition_at { at; heal_after_s } ->
          Link.add_partition_window l ~from_s:at ~until_s:(at +. heal_after_s)
        | Experiment.Drop_burst { at; until_s; rate } ->
          Link.add_drop_burst l ~from_s:at ~until_s ~rate
        | _ -> ())
      events;
    (* one send on each edge of each window *)
    let fates =
      List.map
        (fun now ->
          let d0 = Link.n_dropped l
          and p0 = Link.n_partition_drops l
          and f0 = Link.in_flight l in
          Link.send l ~now (Link.Segment { from_lsn = 0; bytes = "x" });
          if Link.n_partition_drops l > p0 then "cut"
          else if Link.n_dropped l > d0 then "dropped"
          else if Link.in_flight l > f0 then "delivered"
          else "lost")
        [ 1.0; 2.0; 3.0; 4.0 ]
    in
    fates
  in
  let expected = [ "cut"; "delivered"; "dropped"; "delivered" ] in
  Alcotest.(check (list string)) "boundary fates as armed" expected
    (arm s.Schedule.events);
  Alcotest.(check (list string)) "identical after the JSON round-trip"
    expected
    (arm s'.Schedule.events)

(* ------------------------------------------------------------------ *)
(* Explorer: benign runs pass, runs are deterministic, planted
   violations shrink to 1-minimal replayable reproducers *)

let test_benign_schedule_passes () =
  let s =
    {
      Schedule.seed = 3;
      scale = 0.02;
      events = [ Experiment.Checkpoint_at 12.0 ];
    }
  in
  let o = Explore.run_schedule s in
  Alcotest.(check int) "no invariant violated" 0
    (List.length o.Explore.violations);
  Alcotest.(check int) "no crashes" 0 o.Explore.n_crashes;
  Alcotest.(check int) "no partitions" 0 o.Explore.n_partitions;
  Alcotest.(check int) "the founding term survives" 1 o.Explore.final_epoch

let test_run_schedule_deterministic () =
  let s = Schedule.generate ~scale:0.02 ~seed:9 () in
  let a = Explore.run_schedule s in
  let b = Explore.run_schedule s in
  Alcotest.(check bool) "identical outcome records" true (a = b);
  Alcotest.(check bool) "the schedule exercised something" true
    (a.Explore.n_crashes + a.Explore.n_partitions > 0
    || List.length s.Schedule.events > 0)

let planted_extra (m : Experiment.metrics) =
  match m.Experiment.recovery with
  | Some r when r.Experiment.n_crashes > 0 ->
    [ { Explore.invariant = "no_crashes_allowed"; detail = "planted" } ]
  | _ -> []

let test_shrink_to_minimal_reproducer () =
  (* plant an unsatisfiable invariant — "no crash may ever happen" —
     in a 4-event schedule where exactly one event is a crash: the
     shrinker must isolate that event *)
  let s =
    {
      Schedule.seed = 0;
      scale = 0.02;
      events =
        [
          Experiment.Checkpoint_at 6.0;
          Experiment.Drop_burst { at = 8.0; until_s = 9.0; rate = 0.5 };
          Experiment.Crash_at 12.0;
          Experiment.Checkpoint_at 20.0;
        ];
    }
  in
  let violated o =
    List.exists
      (fun v -> v.Explore.invariant = "no_crashes_allowed")
      o.Explore.violations
  in
  let o = Explore.shrink ~extra:planted_extra s in
  Alcotest.(check int) "shrunk to one event" 1
    (List.length o.Explore.schedule.Schedule.events);
  (match o.Explore.schedule.Schedule.events with
  | [ Experiment.Crash_at at ] ->
    Alcotest.(check (float 1e-9)) "the crash is the culprit" 12.0 at
  | _ -> Alcotest.fail "expected the crash to survive shrinking");
  Alcotest.(check bool) "the violation survives the shrink" true (violated o);
  (* the written reproducer replays the identical failure *)
  let replayed =
    Explore.run_schedule ~extra:planted_extra
      (Schedule.of_string (Schedule.to_string o.Explore.schedule))
  in
  Alcotest.(check bool) "replay reproduces the violation" true
    (violated replayed);
  (* a benign schedule passes through the shrinker unshrunk *)
  let benign =
    { s with Schedule.events = [ Experiment.Checkpoint_at 6.0 ] }
  in
  let ob = Explore.shrink ~extra:planted_extra benign in
  Alcotest.(check int) "nothing to shrink without a failure" 1
    (List.length ob.Explore.schedule.Schedule.events);
  Alcotest.(check int) "benign stays clean" 0
    (List.length ob.Explore.violations)

(* A storage quarantine report ({"outcome", "reproducer"}) replays
   through the parse path of [strip-cli chaos --replay]: the schedule
   under "reproducer" runs again to the identical outcome. *)
let test_quarantine_report_replays () =
  let s =
    {
      Schedule.seed = 5;
      scale = 0.02;
      events =
        [ Experiment.Bitrot_at { at = 10.0; target = `Wal; frac = 0.5 } ];
    }
  in
  let o = Explore.run_schedule s in
  let report = Strip_obs.Json.to_string (Explore.quarantine_report o s) in
  Alcotest.check_raises "the whole report is not a schedule"
    (Invalid_argument "Schedule.of_json: missing seed") (fun () ->
      ignore (Schedule.of_string report));
  let parsed = Explore.reproducer_of_string report in
  Alcotest.(check string) "the reproducer round-trips" (Schedule.to_string s)
    (Schedule.to_string parsed);
  Alcotest.(check bool) "replay reproduces the outcome" true
    (Explore.run_schedule parsed = o);
  Alcotest.(check string) "a bare schedule still parses"
    (Schedule.to_string s)
    (Schedule.to_string (Explore.reproducer_of_string (Schedule.to_string s)))

let test_explore_smoke () =
  let outcomes = Explore.explore ~scale:0.02 ~seed:5 ~schedules:2 () in
  Alcotest.(check int) "every schedule ran" 2 (List.length outcomes);
  Alcotest.(check int) "no invariant violated" 0
    (Explore.total_violations outcomes);
  let open Strip_obs in
  let doc = Explore.summary_json ~seed:5 ~scale:0.02 outcomes in
  Alcotest.(check (option int)) "summary carries the sweep size" (Some 2)
    (Option.bind (Json.member "schedules" doc) Json.to_int);
  Alcotest.(check (option int)) "summary carries the gate" (Some 0)
    (Option.bind (Json.member "violations" doc) Json.to_int);
  (* the summary is parseable by our own reader; integral floats re-read
     as ints, so the stable property is the serialized fixed point *)
  let written = Json.to_string doc in
  Alcotest.(check string) "summary JSON re-serializes identically" written
    (Json.to_string (Json.parse written))

(* ------------------------------------------------------------------ *)
(* Causal tracing across a partition-heal failover: the merged cluster
   trace keeps applies parent-linked and epoch-stamped across terms *)

let test_failover_spans_cross_epochs () =
  Strip_txn.Task.reset_ids ();
  let open Strip_obs in
  let tr = Trace.create () in
  let base =
    Experiment.default_config
      (Experiment.Comp_view Comp_rules.Unique_on_comp)
      ~delay:0.5
  in
  let cfg = Experiment.quick base 0.02 in
  let cfg =
    {
      cfg with
      Experiment.verify = true;
      trace = Some tr;
      recovery = Some Experiment.default_recovery;
      repl = Some { Experiment.default_repl with Experiment.replicas = 2 };
      chaos = [ Experiment.Partition_at { at = 10.0; heal_after_s = 2.0 } ];
    }
  in
  let m = Experiment.run cfg in
  (match m.Experiment.repl with
  | None -> Alcotest.fail "expected replication metrics"
  | Some r ->
    Alcotest.(check bool) "the partition elected a new primary" true
      (r.Experiment.n_failovers >= 1);
    Alcotest.(check bool) "a later epoch opened" true (r.Experiment.epoch >= 2));
  Alcotest.(check (list string)) "primary + both replica buffers returned"
    [ "primary"; "replica-0"; "replica-1" ]
    (List.map fst m.Experiment.cluster_traces);
  let all =
    List.concat_map (fun (_, t) -> Trace.events t) m.Experiment.cluster_traces
  in
  let named n = List.filter (fun (e : Trace.event) -> e.Trace.name = n) all in
  Alcotest.(check bool) "promotion traced, epoch-stamped" true
    (List.exists
       (fun (e : Trace.event) -> List.mem_assoc "epoch" e.Trace.args)
       (named "promote" @ named "promote_isolated"));
  Alcotest.(check bool) "heal traced with old and new terms" true
    (List.exists
       (fun (e : Trace.event) ->
         List.mem_assoc "old_epoch" e.Trace.args
         && List.mem_assoc "epoch" e.Trace.args)
       (named "heal"));
  let apply_epoch (e : Trace.event) =
    match List.assoc_opt "epoch" e.Trace.args with
    | Some (Trace.Int ep) -> Some ep
    | _ -> None
  in
  let applies = named "apply" in
  Alcotest.(check bool) "applies span more than one epoch" true
    (List.length
       (List.sort_uniq compare (List.filter_map apply_epoch applies))
    >= 2);
  (* parent-linked applies: the parent span id must exist as a span
     emitted somewhere else in the merged trace (the write on the
     primary of that term) *)
  let span_ids =
    List.filter_map
      (fun (e : Trace.event) ->
        match List.assoc_opt "span" e.Trace.args with
        | Some (Trace.Int s) -> Some s
        | _ -> None)
      all
  in
  let resolved =
    List.exists
      (fun (e : Trace.event) ->
        match List.assoc_opt "parent" e.Trace.args with
        | Some (Trace.Int p) -> List.mem p span_ids
        | _ -> false)
      applies
  in
  Alcotest.(check bool) "an apply parent-links to its write's span" true
    resolved

let suite =
  [
    ( "chaos/json",
      [ Alcotest.test_case "parse the emitted dialect" `Quick test_json_parse ]
    );
    ( "chaos/schedule",
      [
        Alcotest.test_case "generation is pure in the seed" `Quick
          test_generate_deterministic;
        Alcotest.test_case "serialized schedules round-trip" `Quick
          test_schedule_roundtrip;
        Alcotest.test_case "window boundaries half-open across round-trip"
          `Quick test_schedule_window_boundary_roundtrip;
      ] );
    ( "chaos/explore",
      [
        Alcotest.test_case "benign schedules pass every invariant" `Slow
          test_benign_schedule_passes;
        Alcotest.test_case "runs are deterministic" `Slow
          test_run_schedule_deterministic;
        Alcotest.test_case "planted violations shrink to 1-minimal" `Slow
          test_shrink_to_minimal_reproducer;
        Alcotest.test_case "a quarantine report replays" `Slow
          test_quarantine_report_replays;
        Alcotest.test_case "a small sweep runs clean" `Slow test_explore_smoke;
        Alcotest.test_case "failover spans stay linked across epochs" `Slow
          test_failover_spans_cross_epochs;
      ] );
  ]
