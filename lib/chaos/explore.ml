open Strip_pta
open Strip_obs

type violation = { invariant : string; detail : string }

type outcome = {
  schedule : Schedule.t;
  violations : violation list;
  n_crashes : int;
  n_partitions : int;
  n_failovers : int;
  final_epoch : int;
  lost_bytes : int;
  fenced_bytes : int;
  makespan_s : float;
  storage : Experiment.storage_metrics option;
      (* present iff the run armed the storage-fault substrate *)
  registry : Metrics.row list;  (* the rest of the storage report *)
}

(* Every schedule drives the same replicated, durable, unique-rule
   workload: two replicas so elections have a choice, a trickle of
   policy-routed reads, a slightly lossy link so the optimistic resend
   path stays warm, and the unique-on-comp rule so the pending queue is
   live state that crashes and failovers must preserve. *)
let cfg_of ?(slo = []) ?storage (s : Schedule.t) =
  let base =
    Experiment.default_config
      (Experiment.Comp_view Comp_rules.Unique_on_comp)
      ~delay:0.5
  in
  let cfg = Experiment.quick base s.scale in
  {
    cfg with
    Experiment.verify = true;
    (* A fresh monitor per run: schedules (and shrinker trials) must not
       share violation state. *)
    slo = (match slo with [] -> None | os -> Some (Slo.create os));
    (* [None] defers to the run's auto-enable: a schedule with storage
       events gets {!Experiment.default_storage}.  An explicit override
       (e.g. scrubber off) is how the planted-bug hunt de-arms
       detection. *)
    storage;
    recovery = Some Experiment.default_recovery;
    repl =
      Some
        {
          Experiment.default_repl with
          Experiment.replicas = 2;
          read_rate = 2.0;
          link =
            {
              Strip_repl.Link.default_config with
              Strip_repl.Link.drop_rate = 0.01;
              seed = s.seed;
            };
        };
    chaos = s.events;
  }

(* The five invariants every schedule must preserve.  [extra] lets a
   caller (or a test) bolt on a deliberately unsatisfiable check to
   exercise the shrinker. *)
let check ?extra (m : Experiment.metrics) =
  let v = ref [] in
  let add invariant detail = v := { invariant; detail } :: !v in
  (match m.Experiment.recovery with
  | Some r when not r.Experiment.audit_clean ->
    add "auditor_clean"
      (Printf.sprintf "%d divergences survive repair"
         r.Experiment.audit_divergences)
  | _ -> ());
  (match m.Experiment.verified with
  | Some false ->
    add "recovery_converges"
      (Printf.sprintf "view diverges from recomputation (max err %g)"
         m.Experiment.max_abs_error)
  | _ -> ());
  (match m.Experiment.repl with
  | None -> ()
  | Some r ->
    let rec mono = function
      | (e1, _) :: ((e2, _) :: _ as rest) ->
        if e2 <= e1 then
          add "single_primary_per_epoch"
            (Printf.sprintf "epoch %d opened at or below %d" e2 e1);
        mono rest
      | _ -> ()
    in
    mono r.Experiment.epochs;
    List.iter
      (fun (e, _, lsn) ->
        if lsn > r.Experiment.final_lsn then
          add "no_acked_commit_lost"
            (Printf.sprintf
               "epoch %d promoted at lsn %d but the final log ends at %d" e
               lsn r.Experiment.final_lsn))
      r.Experiment.promotions;
    List.iter
      (fun (pr : Experiment.replica_metrics) ->
        if pr.Experiment.r_applied_lsn <> r.Experiment.final_lsn then
          add "recovery_converges"
            (Printf.sprintf "replica %d ends at lsn %d, primary at %d"
               pr.Experiment.r_id pr.Experiment.r_applied_lsn
               r.Experiment.final_lsn))
      r.Experiment.per_replica);
  if m.Experiment.n_dead_letters > 0 then
    add "uq_exactly_once"
      (Printf.sprintf "%d unique transactions dead-lettered"
         m.Experiment.n_dead_letters);
  (* Armed only for storage-fault runs (m.storage is None otherwise). *)
  (match m.Experiment.storage with
  | None -> ()
  | Some s ->
    if s.Experiment.faults_outstanding > 0 then
      add "no_silent_corruption"
        (Printf.sprintf
           "%d injected media fault(s) outstanding — never detected by \
            scrub, shipping or recovery"
           s.Experiment.faults_outstanding);
    if s.Experiment.faults_late > 0 then
      add "detected_within_bound"
        (Printf.sprintf
           "%d injected media fault(s) still outstanding more than \
            ceil(retained bytes / scrub budget) + 1 scrub passes after \
            injection"
           s.Experiment.faults_late);
    if not s.Experiment.final_clean then
      add "salvage_converges"
        "durable media still corrupt at end of run (WAL chain or a \
         retained checkpoint slot fails verification)");
  (* Armed only when the run carried an SLO monitor (m.slo is empty
     otherwise), so SLO-free schedules check exactly the classic five. *)
  List.iter
    (fun (r : Slo.view_report) ->
      if not r.Slo.r_met then
        add "staleness_slo"
          (Printf.sprintf
             "%s over %.3fs bound: %d/%d samples in %d window(s), worst %.3fs"
             r.Slo.r_view r.Slo.r_bound_s r.Slo.r_violations r.Slo.r_samples
             r.Slo.r_windows r.Slo.r_worst_s))
    m.Experiment.slo;
  let base = List.rev !v in
  match extra with None -> base | Some f -> base @ f m

let run_schedule ?extra ?slo ?storage (s : Schedule.t) =
  (* Deterministic task ids across in-process runs: every schedule (and
     every shrinker trial) starts from the same counter. *)
  Strip_txn.Task.reset_ids ();
  let m = Experiment.run (cfg_of ?slo ?storage s) in
  let violations = check ?extra m in
  let n_crashes =
    match m.Experiment.recovery with
    | Some r -> r.Experiment.n_crashes
    | None -> 0
  in
  let n_partitions, n_failovers, final_epoch, lost_bytes, fenced_bytes =
    match m.Experiment.repl with
    | Some r ->
      ( r.Experiment.n_partitions,
        r.Experiment.n_failovers,
        r.Experiment.epoch,
        r.Experiment.promotion_lost_bytes,
        r.Experiment.fenced_bytes )
    | None -> (0, 0, 1, 0, 0)
  in
  {
    schedule = s;
    violations;
    n_crashes;
    n_partitions;
    n_failovers;
    final_epoch;
    lost_bytes;
    fenced_bytes;
    makespan_s = m.Experiment.makespan_s;
    storage = m.Experiment.storage;
    registry = m.Experiment.registry;
  }

(* Delta-debugging-lite: drop event halves while the failure survives,
   then greedily remove single events until no removal keeps it failing.
   The result is 1-minimal — every remaining event is necessary. *)
let shrink ?extra ?slo ?storage (s : Schedule.t) =
  let fails events =
    (run_schedule ?extra ?slo ?storage { s with Schedule.events }).violations
    <> []
  in
  let rec halve events =
    let n = List.length events in
    if n <= 1 then events
    else begin
      let left = List.filteri (fun i _ -> i < n / 2) events in
      let right = List.filteri (fun i _ -> i >= n / 2) events in
      if fails left then halve left
      else if fails right then halve right
      else events
    end
  in
  let rec greedy events =
    let n = List.length events in
    if n <= 1 then events
    else begin
      let rec try_drop i =
        if i >= n then events
        else begin
          let cand = List.filteri (fun j _ -> j <> i) events in
          if fails cand then greedy cand else try_drop (i + 1)
        end
      in
      try_drop 0
    end
  in
  let events =
    if fails s.Schedule.events then greedy (halve s.Schedule.events)
    else s.Schedule.events
  in
  run_schedule ?extra ?slo ?storage { s with Schedule.events }

let explore ?extra ?slo ?(scale = 0.05) ~seed ~schedules () =
  List.init schedules (fun i ->
      run_schedule ?extra ?slo (Schedule.generate ~scale ~seed:(seed + i) ()))

let explore_storage ?extra ?slo ?storage ?(scale = 0.05) ~seed ~schedules () =
  List.init schedules (fun i ->
      run_schedule ?extra ?slo ?storage
        (Schedule.generate_storage ~scale ~seed:(seed + i) ()))

let total_violations outcomes =
  List.fold_left (fun a o -> a + List.length o.violations) 0 outcomes

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)

let violation_json v =
  Json.Obj
    [ ("invariant", Json.Str v.invariant); ("detail", Json.Str v.detail) ]

let outcome_json o =
  Json.Obj
    ([
       ("schedule", Schedule.to_json o.schedule);
       ("events", Json.Str (Schedule.describe o.schedule));
       ("violations", Json.List (List.map violation_json o.violations));
       ("n_crashes", Json.Int o.n_crashes);
       ("n_partitions", Json.Int o.n_partitions);
       ("n_failovers", Json.Int o.n_failovers);
       ("final_epoch", Json.Int o.final_epoch);
       ("lost_bytes", Json.Int o.lost_bytes);
       ("fenced_bytes", Json.Int o.fenced_bytes);
       ("makespan_s", Json.Float o.makespan_s);
     ]
    (* present only for storage-fault runs, so classic chaos JSON stays
       byte-identical *)
    @
    match o.storage with
    | None -> []
    | Some s -> [ ("storage", Report.storage_json o.registry s) ])

let quarantine_report o reproducer =
  Json.Obj
    [ ("outcome", outcome_json o); ("reproducer", Schedule.to_json reproducer) ]

let reproducer_of_string s =
  let j = Json.parse s in
  Schedule.of_json
    (match Json.member "reproducer" j with Some r -> r | None -> j)

let summary_json ~seed ~scale outcomes =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("scale", Json.Float scale);
      ("schedules", Json.Int (List.length outcomes));
      ("violations", Json.Int (total_violations outcomes));
      ("runs", Json.List (List.map outcome_json outcomes));
    ]

let print_outcome o =
  Printf.printf
    "  seed %-6d %-52s crashes %d partitions %d failovers %d epoch %d \
     lost %dB fenced %dB  %s\n%!"
    o.schedule.Schedule.seed
    (Schedule.describe o.schedule)
    o.n_crashes o.n_partitions o.n_failovers o.final_epoch o.lost_bytes
    o.fenced_bytes
    ((match o.storage with
     | None -> ""
     | Some s ->
       Printf.sprintf "media %d/%d/%d/%d/%d (inj/rep/quar/exp/out)  "
         (s.Experiment.injected_bitrot_wal + s.Experiment.injected_bitrot_cp
        + s.Experiment.injected_fsync_lie)
         s.Experiment.faults_repaired s.Experiment.faults_quarantined
         s.Experiment.faults_expunged s.Experiment.faults_outstanding)
    ^
    match o.violations with
    | [] -> "ok"
    | vs ->
      "VIOLATED "
      ^ String.concat "; "
          (List.map (fun v -> v.invariant ^ ": " ^ v.detail) vs))

let print_summary outcomes =
  List.iter print_outcome outcomes;
  let bad = List.filter (fun o -> o.violations <> []) outcomes in
  Printf.printf "  %d schedule(s), %d violation(s) in %d run(s)\n%!"
    (List.length outcomes)
    (total_violations outcomes)
    (List.length bad)
