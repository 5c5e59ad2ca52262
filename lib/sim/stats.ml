open Strip_txn
module Histogram = Strip_obs.Histogram

type per_class = {
  mutable n : int;
  mutable busy : float;  (* µs *)
  mutable queue : float;  (* µs *)
  mutable max_service : float;
  service_h : Histogram.t;  (* µs *)
  queue_h : Histogram.t;  (* µs *)
}

type recovery_work =
  | Restored_rows | Redo_commits | Redo_ops | Requeued | Cp_fallbacks
  | Salvaged_ranges | Salvaged_bytes | Quarantined_bytes | Orphan_merges
  | Repairs

type t = {
  update : per_class;
  recompute : per_class;
  background : per_class;
  (* per-server busy time / task counts (multi-server engine) *)
  sbusy : float array;  (* µs *)
  stasks : int array;
  (* lock arbitration *)
  lock_wait_h : Histogram.t;  (* s, park → wake *)
  mutable lock_waits : int;
  mutable lock_timeouts : int;
  mutable ctx : int;
  (* failure subsystem *)
  mutable injected : int;
  mutable aborts : int;
  mutable retries : int;
  mutable sheds : int;
  mutable coalesced : int;
  mutable dead_letters : int;
  recovery_h : Histogram.t;  (* s *)
  (* crash-restart subsystem *)
  mutable crashes : int;
  crash_recovery_h : Histogram.t;  (* s, crash → engine back up *)
  mutable failovers : int;  (* crashes resolved by replica promotion *)
  work : (recovery_work, int) Hashtbl.t;
  (* rule manager *)
  mutable firings : int;
  mutable rule_tasks : int;
  mutable merges : int;
  (* per-derived-table staleness, sampled at recompute commit (s) *)
  staleness : (string, Histogram.t) Hashtbl.t;
}

let recovery_work_kinds =
  [
    Restored_rows; Redo_commits; Redo_ops; Requeued; Cp_fallbacks;
    Salvaged_ranges; Salvaged_bytes; Quarantined_bytes; Orphan_merges;
    Repairs;
  ]

let recovery_work_name = function
  | Restored_rows -> "restored_rows"
  | Redo_commits -> "redo_commits"
  | Redo_ops -> "redo_ops"
  | Requeued -> "requeued"
  | Cp_fallbacks -> "cp_fallbacks"
  | Salvaged_ranges -> "salvaged_ranges"
  | Salvaged_bytes -> "salvaged_bytes"
  | Quarantined_bytes -> "quarantined_bytes"
  | Orphan_merges -> "orphan_merges"
  | Repairs -> "repairs"

let fresh () =
  {
    n = 0;
    busy = 0.0;
    queue = 0.0;
    max_service = 0.0;
    service_h = Histogram.create ();
    queue_h = Histogram.create ();
  }

let create ?(servers = 1) () =
  {
    update = fresh ();
    recompute = fresh ();
    background = fresh ();
    sbusy = Array.make (max 1 servers) 0.0;
    stasks = Array.make (max 1 servers) 0;
    lock_wait_h = Histogram.create ();
    lock_waits = 0;
    lock_timeouts = 0;
    ctx = 0;
    injected = 0;
    aborts = 0;
    retries = 0;
    sheds = 0;
    coalesced = 0;
    dead_letters = 0;
    recovery_h = Histogram.create ();
    crashes = 0;
    crash_recovery_h = Histogram.create ();
    failovers = 0;
    work =
      Hashtbl.of_seq
        (List.to_seq (List.map (fun k -> (k, 0)) recovery_work_kinds));
    firings = 0;
    rule_tasks = 0;
    merges = 0;
    staleness = Hashtbl.create 8;
  }

let slot t (klass : Task.klass) =
  match klass with
  | Task.Update -> t.update
  | Task.Recompute -> t.recompute
  | Task.Background -> t.background

let record_task ?(server = 0) t ~klass ~service_us ~queue_us =
  let s = slot t klass in
  s.n <- s.n + 1;
  s.busy <- s.busy +. service_us;
  s.queue <- s.queue +. queue_us;
  Histogram.add s.service_h service_us;
  Histogram.add s.queue_h queue_us;
  if service_us > s.max_service then s.max_service <- service_us;
  if server >= 0 && server < Array.length t.sbusy then begin
    t.sbusy.(server) <- t.sbusy.(server) +. service_us;
    t.stasks.(server) <- t.stasks.(server) + 1
  end

let record_context_switches t n = t.ctx <- t.ctx + n

let record_lock_wait t ~seconds =
  t.lock_waits <- t.lock_waits + 1;
  Histogram.add t.lock_wait_h seconds

let record_lock_timeout t = t.lock_timeouts <- t.lock_timeouts + 1

let n_lock_waits t = t.lock_waits
let n_lock_timeouts t = t.lock_timeouts
let lock_wait_hist t = t.lock_wait_h

let num_servers t = Array.length t.sbusy
let server_busy_us t i = t.sbusy.(i)
let server_tasks t i = t.stasks.(i)

let per_server_utilization t ~duration_s =
  Array.to_list
    (Array.map
       (fun busy ->
         if duration_s <= 0.0 then 0.0 else busy *. 1e-6 /. duration_s)
       t.sbusy)

let record_injected t = t.injected <- t.injected + 1
let record_abort t = t.aborts <- t.aborts + 1
let record_retry t = t.retries <- t.retries + 1

let record_shed t ~coalesced =
  t.sheds <- t.sheds + 1;
  if coalesced then t.coalesced <- t.coalesced + 1

let record_dead_letter t = t.dead_letters <- t.dead_letters + 1

let record_recovery t ~latency_s = Histogram.add t.recovery_h latency_s

let record_crash t = t.crashes <- t.crashes + 1

let record_restart t ~recovery_s = Histogram.add t.crash_recovery_h recovery_s

let n_crashes t = t.crashes
let crash_recovery_hist t = t.crash_recovery_h
let record_failover t = t.failovers <- t.failovers + 1
let n_failovers t = t.failovers

let recovery_work t kind = Hashtbl.find t.work kind

let add_recovery_work t kind n =
  Hashtbl.replace t.work kind (recovery_work t kind + n)

let record_firing t = t.firings <- t.firings + 1
let record_rule_task t = t.rule_tasks <- t.rule_tasks + 1
let record_merge t = t.merges <- t.merges + 1
let n_firings t = t.firings
let n_rule_tasks t = t.rule_tasks
let n_merges t = t.merges

let reset_rule_counters t =
  t.firings <- 0;
  t.rule_tasks <- 0;
  t.merges <- 0

let staleness_hist t table =
  match Hashtbl.find_opt t.staleness table with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.add t.staleness table h;
    h

let record_staleness t ~table ~seconds =
  Histogram.add (staleness_hist t table) seconds

let staleness_tables t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.staleness []
  |> List.sort String.compare

let staleness_of t table = Hashtbl.find_opt t.staleness table

let n_injected t = t.injected
let n_aborts t = t.aborts
let n_retries t = t.retries
let n_sheds t = t.sheds
let n_coalesced t = t.coalesced
let n_dead_letters t = t.dead_letters
let n_recoveries t = Histogram.count t.recovery_h
let mean_recovery_s t = Histogram.mean t.recovery_h
let recovery_hist t = t.recovery_h

let busy_us t = t.update.busy +. t.recompute.busy +. t.background.busy

let busy_us_of t klass = (slot t klass).busy

let tasks_run t klass = (slot t klass).n

let n_recompute t = t.recompute.n

let mean_service_us t klass =
  let s = slot t klass in
  if s.n = 0 then 0.0 else s.busy /. float_of_int s.n

let max_service_us t klass = (slot t klass).max_service

let mean_queue_us t klass =
  let s = slot t klass in
  if s.n = 0 then 0.0 else s.queue /. float_of_int s.n

let service_hist t klass = (slot t klass).service_h
let queue_hist t klass = (slot t klass).queue_h

let service_percentile_us t klass p =
  Histogram.percentile (slot t klass).service_h p

let queue_percentile_us t klass p = Histogram.percentile (slot t klass).queue_h p

let context_switches t = t.ctx

let utilization t ~duration_s =
  if duration_s <= 0.0 then 0.0 else busy_us t *. 1e-6 /. duration_s
