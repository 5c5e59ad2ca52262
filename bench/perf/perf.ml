(* bench/perf: wall-clock benchmark of the STRIP reproduction.  Every
   measured pass runs in a fresh child process (this executable
   re-executed with --child), one at a time; see README.md for the
   workloads, metrics and protocol. *)

module J = Strip_obs.Json

let num_opt j k = Option.bind (J.member k j) J.to_float

let num j k =
  match num_opt j k with Some v -> v | None -> failwith ("perf: missing number " ^ k)

let str j k = match J.member k j with Some (J.Str s) -> s | _ -> ""
let obj j k = match J.member k j with Some (J.Obj l) -> l | _ -> []
let opt_json = function Some v -> J.Float v | None -> J.Null

(* ---- child processes ---- *)

(* Run [perf.exe --child ARGS] to completion and parse the JSON object
   it prints as its last line. *)
let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: "--child" :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last = List.nth_opt (List.rev (String.split_on_char '\n' (String.trim out))) 0 in
  match (status, last) with
  | Unix.WEXITED 0, Some line -> (
    try Ok (J.parse line) with J.Parse_error e -> Error ("unparsable child output: " ^ e))
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "%s pass exited with code %d" (List.hd args) c)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
    Error (Printf.sprintf "%s pass killed by signal %d" (List.hd args) s)

let child_main pass (w : Workload.t) ~seed ~scale =
  let cfg = Workload.config w ~seed ~scale in
  let j =
    match pass with
    | "setup" -> Trial.setup_pass cfg
    | "run" -> Trial.run_pass cfg
    | "traced" -> Probe.traced_pass w cfg
    | p -> failwith ("perf: unknown pass " ^ p)
  in
  print_string (J.to_string j);
  print_newline ()

(* ---- measuring one workload ---- *)

type trial = { setup : J.t; run : J.t }

type outcome = {
  w : Workload.t;
  scale : float;
  traced : J.t option;
  trials : trial list;
  problems : string list;  (** failed passes, failed checks, disagreements *)
}

(* When [traced], the traced pass; then timed trials (a setup pass and a
   run pass each) until [budget_s] has passed since the start, with at
   least [min_trials] and at most [max_trials].  Every run pass checks
   its own outputs; all of them must agree. *)
let measure (w : Workload.t) ~seed ~scale ~traced ~budget_s ~min_trials ~max_trials =
  let t0 = Unix.gettimeofday () in
  let problems = ref [] in
  let note p = problems := p :: !problems in
  let pass name =
    match
      spawn
        [ name; "--workload"; w.Workload.name; "--seed"; string_of_int seed; "--scale"; Printf.sprintf "%h" scale ]
    with
    | Ok j -> Some j
    | Error e ->
      note e;
      None
  in
  let traced = if traced then pass "traced" else None in
  let rec loop acc n last_cost =
    let elapsed = Unix.gettimeofday () -. t0 in
    if n >= max_trials || (n >= min_trials && elapsed +. last_cost > budget_s) then List.rev acc
    else
      let ts = Unix.gettimeofday () in
      match pass "setup" with
      | None -> List.rev acc
      | Some setup -> (
        match pass "run" with
        | None -> List.rev acc
        | Some run -> loop ({ setup; run } :: acc) (n + 1) (Unix.gettimeofday () -. ts))
  in
  let trials = loop [] 0 0.0 in
  List.iter
    (fun t ->
      match J.member "failed_checks" t.run with
      | Some (J.List l) -> List.iter (fun c -> note ("check failed: " ^ J.to_string c)) l
      | _ -> ())
    trials;
  let counts j = J.member "counts" j in
  (match trials with
  | first :: rest ->
    List.iter
      (fun t ->
        if str t.run "sim_digest" <> str first.run "sim_digest" then
          note "sim_digest differs between trials";
        if counts t.run <> counts first.run then note "per-layer counts differ between trials")
      rest;
    Option.iter
      (fun t -> if counts t <> counts first.run then note "traced pass counts differ from trials")
      traced
  | [] -> note "no timed trial completed");
  { w; scale; traced; trials; problems = List.sort_uniq compare !problems }

let attempted_failed o =
  List.fold_left
    (fun (a, f) t -> (a + int_of_float (num t.run "attempted"), f + int_of_float (num t.run "failed")))
    (0, 0) o.trials

let quotes o = match o.trials with t :: _ -> num t.setup "quotes" | [] -> nan

(* Steady state of a trial: its run pass less the median setup pass of
   the workload (the setup calls are the same in both passes; the median
   keeps one noisy setup pass out of the difference).  Allocation counts
   repeat exactly, so words are taken from the trial's own setup pass. *)
let steady_s o t =
  num t.run "wall_s" -. Stats.median (List.map (fun t -> num t.setup "wall_s") o.trials)

let per_quote k _ t = (num t.run k -. num t.setup k) /. num t.setup "quotes"

(* ---- end-to-end metrics ---- *)

(* [of_run] turns the trials' samples into the one value a [--workload]
   run reports. *)
type e2e = {
  name : string;
  unit : string;
  of_trial : outcome -> trial -> float;
  of_run : float list -> float;
}

(* Throughput is reported from the fastest trial.  On a shared host,
   interference from other tenants only ever adds time, and it comes in
   stretches of a minute or more that can slow every trial of a run by
   up to 2x; the fastest trial is the one it disturbed least.  On a
   2-core shared VM, a 12-minute record of back-to-back comp-fanin
   trials cut into 25 s runs spread by 10-12 % (IQR over median) when
   each run took its fastest trial, against 21-22 % for its median one. *)
let fastest xs = List.fold_left Float.max neg_infinity xs

let e2e =
  [
    {
      name = "quotes_per_s";
      unit = "1/s";
      of_trial = (fun o t -> quotes o /. steady_s o t);
      of_run = fastest;
    };
    { name = "setup_s"; unit = "s"; of_trial = (fun _ t -> num t.setup "wall_s"); of_run = Stats.median };
    {
      name = "alloc_words_per_quote";
      unit = "words";
      of_trial = per_quote "minor_words";
      of_run = Stats.median;
    };
    {
      name = "promoted_words_per_quote";
      unit = "words";
      of_trial = per_quote "promoted_words";
      of_run = Stats.median;
    };
    {
      name = "peak_heap_mb";
      unit = "MB";
      of_trial = (fun _ t -> num t.run "top_heap_words" *. 8.0 /. 1048576.0);
      of_run = Stats.median;
    };
  ]

let samples (m : e2e) o = List.map (m.of_trial o) o.trials

(* Traced steady state over the untraced median: the whole run pass for a
   workload whose traced steady state wraps [dispatch], the steady state
   otherwise. *)
let trace_overhead o =
  match (o.traced, o.trials) with
  | Some t, _ :: _ ->
    let untraced =
      List.map
        (fun tr ->
          if o.w.Workload.topology = Workload.Plain then steady_s o tr else num tr.run "wall_s")
        o.trials
    in
    Some ((num t "steady_s" /. Stats.median untraced) -. 1.0)
  | _ -> None

let overhead_name = "trace_overhead_frac"

let per_layer_units =
  List.map (fun (d : Layers.def) -> (d.Layers.name, d.Layers.unit)) Layers.all
  @ [ (overhead_name, "frac") ]

(* Every per-layer metric as (name, unit, value). *)
let per_layer o =
  let counts =
    match o.trials with
    | t :: _ ->
      List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) (J.to_int v)) (obj t.run "counts")
    | [] -> []
  in
  let traced_obj k =
    match o.traced with
    | Some t -> List.map (fun (k, v) -> (k, J.to_float v)) (obj t k)
    | None -> []
  in
  let probes = traced_obj "probes" in
  let steps = List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) (traced_obj "self_s") in
  List.map
    (fun (d : Layers.def) ->
      (d.Layers.name, d.Layers.unit, Layers.value d ~quotes:(quotes o) ~counts ~probes ~steps))
    Layers.all
  @ [ (overhead_name, "frac", trace_overhead o) ]

(* ---- results files ---- *)

let workload_json o =
  let attempted, failed = attempted_failed o in
  let summary xs =
    let s = Stats.summarize xs in
    [
      ("median", J.Float s.Stats.median);
      ("q1", J.Float s.Stats.q1);
      ("q3", J.Float s.Stats.q3);
      ("n", J.Int s.Stats.n);
      ("samples", J.List (List.map (fun x -> J.Float x) xs));
    ]
  in
  J.Obj
    [
      ("name", J.Str o.w.Workload.name);
      ("definition", J.Str (Workload.definition o.w ~scale:o.scale));
      ("quotes", J.Float (quotes o));
      ( "sim_digest",
        J.Str (match o.trials with t :: _ -> str t.run "sim_digest" | [] -> "") );
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ( "failed_frac",
        J.Float
          (if o.problems <> [] then 1.0
           else if attempted = 0 then 0.0
           else float_of_int failed /. float_of_int attempted) );
      ("problems", J.List (List.map (fun p -> J.Str p) o.problems));
      ( "end_to_end",
        J.Obj
          (List.map
             (fun m ->
               let xs = samples m o in
               (m.name, J.Obj (("unit", J.Str m.unit) :: (if xs = [] then [] else summary xs))))
             e2e) );
      ( "per_layer",
        J.Obj
          (List.map
             (fun (name, unit, v) -> (name, J.Obj [ ("unit", J.Str unit); ("value", opt_json v) ]))
             (per_layer o)) );
      ( "self_s",
        match o.traced with Some t -> J.Obj (obj t "self_s") | None -> J.Obj [] );
    ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path s =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> output_string oc s)

let git_rev () =
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short=12"; "HEAD" |] with
  | ic ->
    let rev = try input_line ic with End_of_file -> "" in
    (match (Unix.close_process_in ic, rev) with
    | Unix.WEXITED 0, r when r <> "" -> r
    | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

(* Chrome [traceEvents] of every traced pass, one process per workload. *)
let trace_json outcomes =
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.concat
             (List.mapi
                (fun i o ->
                  let pid = i + 1 in
                  let events =
                    match Option.bind o.traced (J.member "events") with
                    | Some (J.List evs) ->
                      List.map
                        (function J.Obj fields -> J.Obj (("pid", J.Int pid) :: fields) | e -> e)
                        evs
                    | _ -> []
                  in
                  J.Obj
                    [
                      ("name", J.Str "process_name");
                      ("ph", J.Str "M");
                      ("pid", J.Int pid);
                      ("args", J.Obj [ ("name", J.Str o.w.Workload.name) ]);
                    ]
                  :: events)
                outcomes)) );
      ("displayTimeUnit", J.Str "ms");
    ]

(* ---- the full benchmark and its smoke run ---- *)

let print_outcome o =
  Printf.printf "%s (%s, %d trials)\n" o.w.Workload.name
    (Workload.definition o.w ~scale:o.scale)
    (List.length o.trials);
  List.iter
    (fun m ->
      match samples m o with
      | [] -> ()
      | xs ->
        let s = Stats.summarize xs in
        Printf.printf "  %-26s %14.6g %-6s IQR %.2f%%\n" m.name s.Stats.median m.unit
          (100.0 *. Stats.rel_spread s))
    e2e;
  Option.iter (Printf.printf "  %-26s %14.4f\n" overhead_name) (trace_overhead o);
  List.iter (Printf.printf "  PROBLEM: %s\n") o.problems;
  print_newline ()

(* The results document must carry every metric, so that a comparison
   never silently skips one. *)
let schema_problems doc =
  let doc = J.parse (J.to_string doc) in
  let workloads = match J.member "workloads" doc with Some (J.List l) -> l | _ -> [] in
  if List.length workloads <> List.length Workload.all then [ "results: wrong workload count" ]
  else
    List.concat_map
      (fun wj ->
        let name = str wj "name" in
        List.filter_map
          (fun m ->
            match Option.bind (J.member "end_to_end" wj) (J.member m.name) with
            | Some mj when num_opt mj "median" <> None -> None
            | _ -> Some (Printf.sprintf "results: %s lacks %s" name m.name))
          e2e
        @ List.filter_map
            (fun k ->
              match Option.bind (J.member "per_layer" wj) (J.member k) with
              | Some mj when J.member "value" mj <> None -> None
              | _ -> Some (Printf.sprintf "results: %s lacks %s" name k))
            (List.map fst per_layer_units))
      workloads

let load path = J.parse (In_channel.with_open_text path In_channel.input_all)

(* BENCHMARK.json must name exactly the workloads and metrics this
   program measures, with the same units. *)
let bench_problems path =
  let b = load path in
  let listed k f = match J.member k b with Some (J.List l) -> List.map f l | _ -> [] in
  let named j = (str j "name", str j "unit") in
  List.filter_map
    (fun (what, listed, measured) ->
      if listed = measured then None else Some (Printf.sprintf "%s: %s differ from perf.exe's" path what))
    [
      ( "workloads",
        listed "workloads" (fun j -> (str j "name", "")),
        List.map (fun (w : Workload.t) -> (w.Workload.name, "")) Workload.all );
      ("end_to_end metrics", listed "end_to_end" named, List.map (fun m -> (m.name, m.unit)) e2e);
      ("per_layer metrics", listed "per_layer" named, per_layer_units);
    ]

let full ~seed ~trials ~traced ~smoke ~out ~bench =
  let outcomes =
    List.map
      (fun (w : Workload.t) ->
        let scale = if smoke then 0.01 else w.Workload.scale in
        let o =
          measure w ~seed ~scale ~traced ~budget_s:0.0 ~min_trials:trials ~max_trials:trials
        in
        if not smoke then print_outcome o;
        o)
      Workload.all
  in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "bench/perf");
        ("command", J.List (List.map (fun a -> J.Str a) (Array.to_list Sys.argv |> List.tl)));
        ("git_rev", J.Str (git_rev ()));
        ("nproc", J.Int (Domain.recommended_domain_count ()));
        ("seed", J.Int seed);
        ("trials", J.Int trials);
        ("smoke", J.Bool smoke);
        ("workloads", J.List (List.map workload_json outcomes));
      ]
  in
  Option.iter
    (fun path ->
      write_file path (J.to_string doc);
      if traced then
        write_file (Filename.concat (Filename.dirname path) "trace.json") (J.to_string (trace_json outcomes)))
    out;
  let problems =
    List.concat_map (fun o -> o.problems) outcomes
    @ schema_problems doc
    @ Option.fold ~none:[] ~some:bench_problems bench
  in
  List.iter (Printf.printf "FAIL: %s\n") problems;
  if problems <> [] then exit 1;
  if smoke then Printf.printf "bench/perf smoke: %d workloads passed\n" (List.length outcomes)

(* ---- comparing two results files ---- *)

let compare_files ~bench parent_path change_path =
  let parent = load parent_path and change = load change_path in
  let refuse why =
    Printf.printf "refusing to compare: %s\n" why;
    exit 2
  in
  if J.member "smoke" parent = Some (J.Bool true) || J.member "smoke" change = Some (J.Bool true)
  then refuse "smoke results are not measurements";
  List.iter
    (fun k -> if J.member k parent <> J.member k change then refuse (k ^ " differs"))
    [ "seed"; "trials" ];
  let wls doc = match J.member "workloads" doc with Some (J.List l) -> l | _ -> [] in
  let defs doc = List.map (fun w -> (str w "name", str w "definition")) (wls doc) in
  if defs parent <> defs change then refuse "workload definitions differ";
  let metrics =
    match J.member "end_to_end" (load bench) with
    | Some (J.List l) ->
      List.map
        (fun m ->
          ( str m "name",
            (if str m "better" = "higher" then Stats.Higher else Stats.Lower),
            num m "bound" ))
        l
    | _ -> refuse (bench ^ " has no end_to_end list")
  in
  let worse = ref 0 in
  List.iter2
    (fun pw cw ->
      Printf.printf "%s\n" (str pw "name");
      let sample w m =
        match Option.bind (J.member "end_to_end" w) (J.member m) with
        | Some mj -> (
          match J.member "samples" mj with
          | Some (J.List l) -> List.filter_map J.to_float l
          | _ -> [])
        | None -> []
      in
      List.iter
        (fun (m, better, bound) ->
          match (sample pw m, sample cw m) with
          | (_ :: _ as parent), (_ :: _ as change) ->
            let v = Stats.verdict ~better ~bound ~parent ~change in
            if v = Stats.Worse then incr worse;
            let p = Stats.summarize parent and c = Stats.summarize change in
            Printf.printf "  %-26s parent %12.6g [%.6g, %.6g]  change %12.6g [%.6g, %.6g]  %+6.2f%%  %s\n" m
              p.Stats.median p.Stats.q1 p.Stats.q3 c.Stats.median c.Stats.q1 c.Stats.q3
              (100.0 *. (c.Stats.median -. p.Stats.median) /. p.Stats.median)
              (Stats.verdict_name v)
          | _ ->
            incr worse;
            Printf.printf "  %-26s missing samples: worse\n" m)
        metrics;
      let pf = num pw "failed_frac" and cf = num cw "failed_frac" in
      let ok = cf <= pf in
      if not ok then incr worse;
      Printf.printf "  %-26s parent %g  change %g  %s\n" "failed_frac" pf cf
        (if ok then "unchanged" else "worse");
      Printf.printf "  per-layer (parent -> change):\n";
      List.iter
        (fun (k, pv) ->
          let cv = Option.bind (J.member "per_layer" cw) (J.member k) in
          let v j = Option.bind j (fun j -> Option.bind (J.member "value" j) J.to_float) in
          let fmt = function Some x -> Printf.sprintf "%.6g" x | None -> "n/a" in
          let pv = v (Some pv) and cv = v cv in
          Printf.printf "    %-38s %14s -> %-14s%s\n" k (fmt pv) (fmt cv) (if pv = cv then "" else " *"))
        (obj pw "per_layer"))
    (wls parent) (wls change);
  if !worse > 0 then begin
    Printf.printf "%d metric(s) worse\n" !worse;
    exit 1
  end

(* ---- the BENCHMARK.json interface: one workload, a time budget ---- *)

let single (w : Workload.t) ~seed ~seconds ~trace =
  let o =
    measure w ~seed ~scale:w.Workload.scale ~traced:trace ~budget_s:(float_of_int seconds)
      ~min_trials:(if trace then 1 else 3) ~max_trials:50
  in
  List.iter (fun p -> prerr_endline ("perf: " ^ p)) o.problems;
  let attempted, failed = attempted_failed o in
  let metric name unit v = (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]) in
  let metrics =
    if trace then
      (* A ratio with nothing to divide by reads 0: the layer did no work. *)
      List.map (fun (name, unit, v) -> metric name unit (Option.value v ~default:0.0)) (per_layer o)
    else
      List.map
        (fun m ->
          let xs = samples m o in
          Printf.eprintf "perf: %s %s: %s\n" w.Workload.name m.name
            (String.concat " " (List.map (Printf.sprintf "%.6g") xs));
          metric m.name m.unit (if xs = [] then nan else m.of_run xs))
        e2e
  in
  let correct = o.problems = [] in
  print_string
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj metrics);
          ]));
  print_newline ();
  if not correct then exit 1

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: perf.exe [--seed S] [--trials N] [--traced] [--out FILE]\n\
    \       perf.exe --smoke [--bench BENCHMARK.json]\n\
    \       perf.exe --compare PARENT.json CHANGE.json [--bench BENCHMARK.json]\n\
    \       perf.exe --workload W --seed S --seconds N --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec get k = function
    | k' :: v :: _ when k' = k -> Some v
    | _ :: rest -> get k rest
    | [] -> None
  in
  let has k = List.mem k args in
  let int_arg k ~default =
    match get k args with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let seed = int_arg "--seed" ~default:1994 in
  let workload () =
    match Option.bind (get "--workload" args) Workload.find with
    | Some w -> w
    | None ->
      prerr_endline
        ("perf: --workload must be one of "
        ^ String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
      exit 2
  in
  match (get "--child" args, get "--compare" args) with
  | Some pass, _ ->
    let w = workload () in
    let scale = match get "--scale" args with Some v -> float_of_string v | None -> w.Workload.scale in
    child_main pass w ~seed ~scale
  | None, Some parent -> (
    match List.find_index (( = ) parent) args with
    | Some i when i + 1 < List.length args ->
      compare_files
        ~bench:(Option.value (get "--bench" args) ~default:"BENCHMARK.json")
        parent (List.nth args (i + 1))
    | _ -> usage ())
  | None, None ->
    if has "--workload" then
      single (workload ()) ~seed ~seconds:(int_arg "--seconds" ~default:25)
        ~trace:(int_arg "--trace" ~default:0 = 1)
    else if has "--smoke" then
      full ~seed ~trials:1 ~traced:true ~smoke:true ~out:(get "--out" args) ~bench:(get "--bench" args)
    else
      full ~seed ~trials:(int_arg "--trials" ~default:5) ~traced:(has "--traced") ~smoke:false
        ~out:(get "--out" args) ~bench:(get "--bench" args)
