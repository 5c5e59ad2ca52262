open Strip_relational
open Strip_txn
let c_context_switch = Meter.counter "context_switch"
let c_sched_congestion = Meter.counter "sched_congestion"
let c_task_dead_letter = Meter.counter "task_dead_letter"
let c_task_dispatch = Meter.counter "task_dispatch"
let c_task_retry = Meter.counter "task_retry"
let c_task_shed = Meter.counter "task_shed"
module Trace = Strip_obs.Trace

type retry = {
  max_attempts : int;
  base_backoff_s : float;
  max_backoff_s : float;
}

let default_retry = { max_attempts = 5; base_backoff_s = 0.05; max_backoff_s = 2.0 }

type shed_policy = Drop | Coalesce

type overload = {
  high_watermark : int;
  shed_policy : shed_policy;
}

type t = {
  eclock : Clock.t;
  events : Task.t Event_queue.t;  (* the delay queue *)
  ready : Queues.t;
  cost : Cost_model.t;
  estats : Stats.t;
  retry : retry option;
  overload : overload option;
  locks : Lock.t option;
      (* when wired, committing transactions release their locks deferred
         (zombie holders) until the completion event at the task's
         simulated finish instant — the contention source for overlapping
         servers *)
  lock_timeout_s : float;
  servers : float array;  (* per-server next-free instants *)
  completions : int list Event_queue.t;
      (* finish instants of dispatched tasks; payload = the txids whose
         lock release was deferred inside the task body *)
  inflight : (int, float) Hashtbl.t;  (* deferred txid -> finish instant *)
  parked : (int, (Task.t * float) list ref) Hashtbl.t;
      (* blocker txid -> tasks parked on it, with their park instants;
         woken FIFO by task id when the blocker's completion flushes *)
  mutable n_parked : int;
  mutable arrivals : float array;
  recent_dispatches : float Queue.t;
      (* dispatch instants within the trailing second, for the congestion
         surcharge *)
  mutable dead : Task.t list;  (* newest first *)
  mutable on_requeue : (Task.t -> unit) option;
  mutable on_shed : (victim:Task.t -> into:Task.t option -> unit) option;
  mutable fatal : exn -> bool;
  mutable backlog_hint : int;
      (* optimistic count of live pending rule tasks; may overcount
         externally-cancelled entries, resynced on every overload check *)
  mutable in_body : bool;  (* a task body is executing *)
  mutable before : Meter.snapshot;
  mutable after : Meter.snapshot;
      (* [dispatch]'s meter snapshots around a body, refilled per task;
         dispatches never nest ([in_body]), so one pair suffices *)
  trace : Trace.t option;
}

let create ~clock ?policy ?(cost = Cost_model.default) ?retry ?overload ?locks
    ?(servers = 1) ?(lock_timeout_s = 5.0) ?trace ?stats () =
  if servers < 1 then invalid_arg "Engine.create: servers < 1";
  {
    eclock = clock;
    events = Event_queue.create ();
    ready = Queues.create ?policy ();
    cost;
    estats =
      (match stats with Some st -> st | None -> Stats.create ~servers ());
    retry;
    overload;
    locks;
    lock_timeout_s;
    servers = Array.make servers 0.0;
    completions = Event_queue.create ();
    inflight = Hashtbl.create 64;
    parked = Hashtbl.create 16;
    n_parked = 0;
    arrivals = [||];
    recent_dispatches = Queue.create ();
    dead = [];
    on_requeue = None;
    on_shed = None;
    fatal = (fun _ -> false);
    backlog_hint = 0;
    in_body = false;
    before = Meter.snapshot ();
    after = Meter.snapshot ();
    trace;
  }

let tid_of (task : Task.t) =
  match task.Task.klass with
  | Task.Update -> Trace.tid_update
  | Task.Recompute -> Trace.tid_recompute
  | Task.Background -> Trace.tid_background

(* Lifecycle instants share one argument vocabulary: the task id and its
   user-function name, so any event can be joined back to its task; when
   the task carries a causal context its trace/span/parent ids ride
   along, linking the event into the cluster-wide span tree. *)
let ctx_args (task : Task.t) =
  match task.Task.ctx with
  | None -> []
  | Some ctx -> Strip_obs.Span.args ctx

let trace_instant t ~ts ?(extra = []) name (task : Task.t) =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.instant tr ~ts ~tid:(tid_of task)
      ~args:
        ([
           ("task", Trace.Int task.Task.task_id);
           ("func", Trace.Str task.Task.func_name);
         ]
        @ ctx_args task @ extra)
      name

let clock t = t.eclock
let cost_model t = t.cost
let stats t = t.estats
let trace t = t.trace
let dead_letters t = List.rev t.dead
let set_requeue_hook t f = t.on_requeue <- Some f
let set_shed_hook t f = t.on_shed <- Some f
let set_fatal_filter t f = t.fatal <- f
let num_servers t = Array.length t.servers
let parked_count t = t.n_parked

(* The server the next dispatch lands on: earliest free, lowest index on
   ties — both deterministic. *)
let min_server t =
  let s = ref 0 in
  for i = 1 to Array.length t.servers - 1 do
    if t.servers.(i) < t.servers.(!s) then s := i
  done;
  !s

(* ------------------------------------------------------------------ *)
(* Overload control: when the live backlog of rule-triggered tasks
   exceeds the high watermark, shed delayed tasks — preferring expired
   deadlines, then low value, then staleness — so the engine keeps
   serving updates instead of drowning in recomputations.  Only rule
   ([Recompute]) tasks count or are shed: updates must run, and
   background tasks (checkpoints, scheduled faults, the scrubber) are
   the system's own work, not a backlog of maintenance. *)

let live_rule_task acc (task : Task.t) =
  match (task.Task.klass, task.Task.state) with
  | Task.Recompute, (Task.Pending | Task.Ready) -> acc + 1
  | _ -> acc

let backlog t =
  let parked =
    Hashtbl.fold
      (fun _ lst acc ->
        List.fold_left (fun acc (task, _) -> live_rule_task acc task) acc !lst)
      t.parked 0
  in
  Queues.fold
    (fun acc task -> live_rule_task acc task)
    (Event_queue.fold
       (fun acc _time task -> live_rule_task acc task)
       parked t.events)
    t.ready

(* [a] is a better shed victim than [b]: expired deadline first, then the
   lowest value, then the stalest (oldest) task, then the lowest task id.
   The final tiebreak makes this a total order, so the victim chosen by
   folding over the delay queue is independent of the heap's internal
   layout (Event_queue.fold visits in arbitrary order). *)
let better_victim now (a : Task.t) (b : Task.t) =
  let expired (x : Task.t) =
    match x.Task.deadline with Some d -> d < now | None -> false
  in
  match (expired a, expired b) with
  | true, false -> true
  | false, true -> false
  | _ ->
    if a.Task.value <> b.Task.value then a.Task.value < b.Task.value
    else if a.Task.created_at <> b.Task.created_at then
      a.Task.created_at < b.Task.created_at
    else a.Task.task_id < b.Task.task_id

let pick_victim t ~exclude =
  let now = Clock.now t.eclock in
  Event_queue.fold
    (fun best _time (task : Task.t) ->
      match (task.Task.klass, task.Task.state, best) with
      | Task.Recompute, Task.Pending, None when task != exclude -> Some task
      | Task.Recompute, Task.Pending, Some b
        when task != exclude && better_victim now task b ->
        Some task
      | _ -> best)
    None t.events

(* The victim's bound rows can move into [into]'s TCB when the two tasks
   run the same user function and every victim table has a namesake in
   [into] that can absorb it — degraded batching (the rows lose their
   per-key transaction) but no lost data.  A TCB rebuilt by crash
   recovery is fully materialized, and a live pointer TCB cannot take
   it: such a victim is dropped instead. *)
let can_coalesce ~into:(dst : Task.t) (victim : Task.t) =
  dst != victim
  && String.equal dst.Task.func_name victim.Task.func_name
  && victim.Task.bound <> []
  && List.for_all
       (fun (name, src) ->
         match List.assoc_opt name dst.Task.bound with
         | Some into -> Temp_table.can_absorb into src
         | None -> false)
       victim.Task.bound

let do_coalesce ~into:(dst : Task.t) (victim : Task.t) =
  List.iter
    (fun (name, tmp) -> Temp_table.absorb (List.assoc name dst.Task.bound) tmp)
    victim.Task.bound

let shed t ~incoming ov =
  if t.backlog_hint > ov.high_watermark then begin
    let exact = backlog t in
    t.backlog_hint <- exact;
    let excess = ref (exact - ov.high_watermark) in
    while !excess > 0 do
      match pick_victim t ~exclude:incoming with
      | None -> excess := 0
      | Some victim ->
        let into =
          if ov.shed_policy = Coalesce && can_coalesce ~into:incoming victim
          then Some incoming
          else None
        in
        (* The hook sees the victim with its bound rows still intact, and
           learns where they are headed — the durability layer uses this to
           log the merge before the rows change hands. *)
        (match t.on_shed with
        | Some f -> f ~victim ~into
        | None -> ());
        let coalesced =
          match into with
          | Some dst ->
            do_coalesce ~into:dst victim;
            true
          | None -> false
        in
        Task.cancel victim;
        Meter.tick_c c_task_shed;
        trace_instant t ~ts:(Clock.now t.eclock)
          ~extra:[ ("coalesced", Trace.Int (Bool.to_int coalesced)) ]
          "shed" victim;
        Stats.record_shed t.estats ~coalesced;
        t.backlog_hint <- t.backlog_hint - 1;
        decr excess
    done
  end

(* ------------------------------------------------------------------ *)

let submit t task =
  if task.Task.klass = Task.Recompute then
    t.backlog_hint <- t.backlog_hint + 1;
  trace_instant t ~ts:(Clock.now t.eclock)
    ~extra:[ ("release", Trace.Float task.Task.release_time) ]
    "enqueue" task;
  if task.Task.release_time <= Clock.now t.eclock then
    Queues.enqueue t.ready task
  else Event_queue.add t.events ~time:task.Task.release_time task;
  (* Under [Coalesce], a task with no bound rows (a shard's
     [shard_apply]) starts no shed: no victim could coalesce into it, so
     the victim would be dropped.  [Drop] drops victims by design. *)
  match (task.Task.klass, t.overload) with
  | Task.Recompute, Some ov when ov.shed_policy = Drop || task.Task.bound <> [] ->
    shed t ~incoming:task ov
  | _ -> ()

let set_arrival_profile t arrivals = t.arrivals <- arrivals

let pending t = Event_queue.length t.events + Queues.length t.ready + t.n_parked

let ready_length t = Queues.length t.ready

let delayed_length t = Event_queue.length t.events

(* Number of update arrivals in the open-closed interval (t0, t1]. *)
let arrivals_between t t0 t1 =
  let a = t.arrivals in
  let n = Array.length a in
  (* first index with a.(i) > t0 *)
  let lower bound =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) <= bound then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  max 0 (lower t1 - lower t0)

let release_due t =
  match Event_queue.pop t.events with
  | None -> ()
  | Some (time, task) ->
    (* Events dated before now exist only after crash recovery, when tasks
       rebuilt from the log keep their original release times but the clock
       has been advanced past them to charge the recovery downtime.  They
       release immediately; the clock never moves backwards. *)
    let time = Float.max time (Clock.now t.eclock) in
    Clock.advance_to t.eclock time;
    (match task.Task.state with
    | Task.Pending ->
      trace_instant t ~ts:time "release" task;
      Queues.enqueue t.ready task
    | Task.Ready | Task.Running | Task.Done | Task.Cancelled -> ())

(* Scheduling congestion (paper §5.1): "more recompute transactions means
   more tasks in the system at the same time which increases the scheduling
   time ... a critical region when transaction management costs become
   comparable to query costs".  We charge a surcharge quadratic in the
   dispatch rate over the trailing second; it is negligible below ~100
   tasks/s and dominant around the paper's critical region (~280 tasks/s,
   i.e. 500k recomputations per 30-minute run). *)
let congestion_us t now =
  let unit = Cost_model.cost_us t.cost "sched_congestion" in
  if unit <= 0.0 then 0.0
  else begin
    while
      (not (Queue.is_empty t.recent_dispatches))
      && Queue.peek t.recent_dispatches < now -. 1.0
    do
      ignore (Queue.pop t.recent_dispatches)
    done;
    Queue.push now t.recent_dispatches;
    let n = Queue.length t.recent_dispatches in
    let surcharge = unit *. float_of_int (n * n) in
    if surcharge > 0.0 then Meter.tick_cn c_sched_congestion (n * n);
    surcharge
  end

(* A failed attempt: re-enqueue with bounded exponential backoff while the
   retry budget lasts, dead-letter once it is exhausted, and fall back to
   the fail-fast contract (discard + propagate) when retry is off or the
   error is classified fatal.  A crash or partition escaping through the
   task is a node fault, not a failed transaction: nothing aborted, and it
   goes straight to the recovery driver. *)
let handle_failure t ~now task e =
  match e with
  | Fault.Crashed _ | Fault.Partitioned _ ->
    Task.discard task;
    raise e
  | _ -> (
    Stats.record_abort t.estats;
    trace_instant t ~ts:now
      ~extra:
        [
          ("attempt", Trace.Int task.Task.attempts);
          ("error", Trace.Str (Printexc.to_string e));
        ]
      "abort" task;
    if Float.is_nan task.Task.first_failed_at then
      task.Task.first_failed_at <- now;
    task.Task.first_blocked_at <- nan;
    match t.retry with
    | Some r when not (t.fatal e) ->
      if task.Task.attempts < r.max_attempts then begin
        let backoff =
          Float.min r.max_backoff_s
            (r.base_backoff_s
            *. (2.0 ** float_of_int (task.Task.attempts - 1)))
        in
        task.Task.release_time <- now +. backoff;
        Meter.tick_c c_task_retry;
        trace_instant t ~ts:now
          ~extra:[ ("backoff_s", Trace.Float backoff) ]
          "retry" task;
        Stats.record_retry t.estats;
        (match t.on_requeue with Some f -> f task | None -> ());
        submit t task
      end
      else begin
        Task.discard task;
        t.dead <- task :: t.dead;
        Meter.tick_c c_task_dead_letter;
        trace_instant t ~ts:now
          ~extra:[ ("attempts", Trace.Int task.Task.attempts) ]
          "dead_letter" task;
        Stats.record_dead_letter t.estats
      end
    | Some _ | None ->
      Task.discard task;
      raise e)

(* Wake the tasks parked on [owner], FIFO by task id, at completion
   instant [time].  Tasks cancelled while parked (shed, discarded) are
   silently dropped. *)
let wake_parked t ~time owner =
  match Hashtbl.find_opt t.parked owner with
  | None -> ()
  | Some lst ->
    Hashtbl.remove t.parked owner;
    let woken =
      List.sort
        (fun ((a : Task.t), _) ((b : Task.t), _) ->
          compare a.Task.task_id b.Task.task_id)
        !lst
    in
    List.iter
      (fun ((task : Task.t), since) ->
        t.n_parked <- t.n_parked - 1;
        match task.Task.state with
        | Task.Pending ->
          Stats.record_lock_wait t.estats
            ~seconds:(Float.max 0.0 (time -. since));
          trace_instant t ~ts:time
            ~extra:[ ("blocker", Trace.Int owner) ]
            "wake" task;
          Queues.enqueue t.ready task
        | Task.Ready | Task.Running | Task.Done | Task.Cancelled -> ())
      woken

(* A completion event: the simulated instant a dispatched task finished.
   Flush the zombie locks of every transaction that committed inside its
   body, then wake their waiters. *)
let complete t ~advance time owners =
  if advance then Clock.advance_to t.eclock time;
  (match t.locks with
  | Some lk -> List.iter (fun owner -> Lock.flush lk ~owner) owners
  | None -> ());
  List.iter
    (fun owner ->
      Hashtbl.remove t.inflight owner;
      wake_parked t ~time owner)
    owners

let park t task ~start ~blocker ~finish =
  task.Task.attempts <- task.Task.attempts - 1;
  if Float.is_nan task.Task.first_blocked_at then
    task.Task.first_blocked_at <- start;
  if task.Task.klass = Task.Recompute then
    t.backlog_hint <- t.backlog_hint + 1;
  t.n_parked <- t.n_parked + 1;
  trace_instant t ~ts:start
    ~extra:[ ("blocker", Trace.Int blocker); ("until", Trace.Float finish) ]
    "lock_wait" task;
  (* Re-register unique transactions, as on retry: merges keep appending
     to the parked TCB while the task waits for the lock. *)
  (match t.on_requeue with Some f -> f task | None -> ());
  let lst =
    match Hashtbl.find_opt t.parked blocker with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add t.parked blocker l;
      l
  in
  lst := (task, start) :: !lst

let dispatch t task =
  let s = min_server t in
  let start = Float.max (Clock.now t.eclock) t.servers.(s) in
  Clock.advance_to t.eclock start;
  if task.Task.klass = Task.Recompute then
    t.backlog_hint <- t.backlog_hint - 1;
  task.Task.dispatched_at <- start;
  let queue_us = Float.max 0.0 (start -. task.Task.release_time) *. 1e6 in
  if t.in_body then invalid_arg "Engine.dispatch: nested inside a task body";
  let before = Meter.snapshot_into t.before in
  t.before <- before;
  Meter.tick_c c_task_dispatch;
  (match t.locks with Some lk -> Lock.begin_defer lk | None -> ());
  t.in_body <- true;
  let failure =
    match Task.run task with () -> None | exception e -> Some e
  in
  t.in_body <- false;
  let owners = match t.locks with Some lk -> Lock.end_defer lk | None -> [] in
  let after = Meter.snapshot_into t.after in
  t.after <- after;
  (* A lock-blocked attempt parks on the conflicting holder instead of
     charging: its partial work was undone by the abort, and the modeled
     executor would have blocked in place rather than burned its server.
     Parking requires a blocker still in flight — injected conflicts carry
     no blockers and detected deadlocks must not wait, so both take the
     ordinary failure path — and a wait that has exceeded the timeout is
     presumed deadlocked and retried with backoff instead. *)
  let park_target =
    match (failure, t.locks) with
    | ( Some (Transaction.Lock_conflict { blockers; deadlock = false; _ }),
        Some _ )
      when blockers <> [] -> (
      let inflight =
        List.filter_map
          (fun b ->
            Option.map (fun f -> (f, b)) (Hashtbl.find_opt t.inflight b))
          blockers
      in
      (* wait on the holder that releases last, so one wake suffices *)
      match List.sort (fun a b -> compare b a) inflight with
      | [] -> None
      | (finish, blocker) :: _ ->
        if
          (not (Float.is_nan task.Task.first_blocked_at))
          && start -. task.Task.first_blocked_at > t.lock_timeout_s
        then begin
          Stats.record_lock_timeout t.estats;
          trace_instant t ~ts:start
            ~extra:[ ("blocker", Trace.Int blocker) ]
            "lock_timeout" task;
          None
        end
        else Some (blocker, finish))
    | _ -> None
  in
  match park_target with
  | Some (blocker, finish) ->
    (* Single-transaction task bodies cannot both defer a commit and then
       fail, but flush defensively if one did. *)
    (match t.locks with
    | Some lk -> List.iter (fun owner -> Lock.flush lk ~owner) owners
    | None -> ());
    park t task ~start ~blocker ~finish
  | None -> (
    let us = ref (Cost_model.charge_span t.cost ~before ~after) in
    (* Only rule-triggered tasks contend on the task-management structures
       (updates bypass the delay queue and unique hash). *)
    (match task.Task.klass with
    | Task.Update -> ()
    | Task.Recompute | Task.Background -> us := !us +. congestion_us t start);
    (* Charge preemption overhead: one context switch per update arriving
       while this (non-update) task occupies its server. *)
    (match task.Task.klass with
    | Task.Update -> ()
    | Task.Recompute | Task.Background ->
      let span = !us *. 1e-6 in
      let ctx = arrivals_between t start (start +. span) in
      if ctx > 0 then begin
        Meter.tick_cn c_context_switch ctx;
        us :=
          !us +. (Cost_model.cost_us t.cost "context_switch" *. float_of_int ctx);
        Stats.record_context_switches t.estats ctx
      end);
    task.Task.service_us <- !us;
    let finish = start +. (!us *. 1e-6) in
    t.servers.(s) <- finish;
    Stats.record_task ~server:s t.estats ~klass:task.Task.klass
      ~service_us:!us ~queue_us;
    if owners <> [] then begin
      List.iter (fun owner -> Hashtbl.replace t.inflight owner finish) owners;
      Event_queue.add t.completions ~time:finish owners
    end;
    (match t.trace with
    | None -> ()
    | Some tr ->
      Trace.complete tr ~ts:start ~dur_us:!us ~tid:(tid_of task)
        ~args:
          ([
             ("task", Trace.Int task.Task.task_id);
             ("attempt", Trace.Int task.Task.attempts);
             ("queue_us", Trace.Float queue_us);
             ("server", Trace.Int s);
             ("ok", Trace.Int (Bool.to_int (Option.is_none failure)));
           ]
          @ ctx_args task)
        task.Task.func_name);
    match failure with
    | None ->
      task.Task.first_blocked_at <- nan;
      if
        task.Task.attempts > 1
        && not (Float.is_nan task.Task.first_failed_at)
      then
        Stats.record_recovery t.estats
          ~latency_s:(Float.max 0.0 (finish -. task.Task.first_failed_at))
    | Some e -> handle_failure t ~now:finish task e)

let run ?(until = infinity) t =
  let continue_ = ref true in
  while !continue_ do
    let tc = Event_queue.peek_time t.completions in
    let te = Event_queue.peek_time t.events in
    let has_ready = Queues.peek t.ready <> None in
    if (not has_ready) && tc = None && te = None then continue_ := false
    else begin
      (* The three possible next steps, earliest first; at equal instants
         completions run before releases run before dispatch, so a holder's
         locks are flushed before any task that could collide with it
         starts. *)
      let ds =
        if has_ready then
          Some (Float.max (Clock.now t.eclock) t.servers.(min_server t))
        else None
      in
      let le a b =
        match (a, b) with
        | Some x, Some y -> x <= y
        | Some _, None -> true
        | None, _ -> false
      in
      if (match tc with Some c -> le tc te && le (Some c) ds | None -> false)
      then begin
        if Option.get tc <= until then
          match Event_queue.pop t.completions with
          | Some (time, owners) -> complete t ~advance:true time owners
          | None -> ()
        else continue_ := false
      end
      else if match te with Some _ -> le te ds | None -> false then begin
        if Option.get te <= until then release_due t
        else continue_ := false
      end
      else
        match Queues.dequeue t.ready with
        | Some task -> dispatch t task
        | None -> ()
    end
  done

(* A direct action (a transaction or checkpoint made between [run]s,
   not from a task body) happens after every dispatched body: flush the
   zombie locks of the queued completions and wake their waiters, without
   advancing the clock, so it never collides with a holder whose
   transaction is already over.  Inside a body it is a no-op — there the
   zombies are the contention being simulated. *)
let rec settle t =
  if not t.in_body then
    match Event_queue.pop t.completions with
    | None -> ()
    | Some (time, owners) ->
      complete t ~advance:false time owners;
      settle t

(* Crash: every queued, delayed, parked or in-flight task dies with the
   process.  Discarding (rather than cancelling) retires the tasks' bound
   tables so the temp-table pool stays balanced across a restart; parked
   waiters are explicitly drained so none leak as zombies — recovery
   re-creates the work they carried from the durable queue log. *)
let rec drain pop f = match pop () with None -> () | Some x -> f x; drain pop f

let discard_all t =
  drain (fun () -> Event_queue.pop t.events) (fun (_, task) -> Task.discard task);
  drain (fun () -> Queues.dequeue t.ready) Task.discard;
  Hashtbl.iter
    (fun _ lst -> List.iter (fun (task, _) -> Task.discard task) !lst)
    t.parked;
  Hashtbl.reset t.parked;
  t.n_parked <- 0;
  drain (fun () -> Event_queue.pop t.completions) ignore;
  Hashtbl.reset t.inflight;
  t.backlog_hint <- 0;
  Queue.clear t.recent_dispatches
