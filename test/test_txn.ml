open Strip_relational
open Strip_txn

let setup () =
  let cat = Catalog.create () in
  let tb =
    Catalog.create_table cat ~name:"t"
      ~schema:(Schema.of_list [ ("k", Value.TStr); ("v", Value.TInt) ])
  in
  ignore (Table.create_index tb ~name:"t_k" ~kind:Index.Hash ~cols:[ "k" ]);
  let locks = Lock.create () in
  let clock = Clock.create () in
  (cat, tb, locks, clock)

let begin_ (cat, _, locks, clock) = Transaction.begin_ ~cat ~locks ~clock ()

let contents tb =
  List.map
    (fun r -> (Value.to_string r.(0), Value.to_int r.(1)))
    (Table.to_rows tb)

let test_commit_time () =
  let ((_, _, _, clock) as env) = setup () in
  let txn = begin_ env in
  Clock.advance_to clock 5.5;
  ignore (Transaction.exec txn "insert into t values ('a', 1)");
  Transaction.commit txn;
  Alcotest.(check (float 1e-9)) "stamped at commit" 5.5 (Transaction.commit_time txn);
  Alcotest.(check bool) "status" true (Transaction.status txn = Transaction.Committed)

let test_abort_undoes_everything () =
  let ((_, tb, _, _) as env) = setup () in
  let t0 = begin_ env in
  ignore (Transaction.exec t0 "insert into t values ('a',1),('b',2),('c',3)");
  Transaction.commit t0;
  Transaction.cleanup t0;
  let txn = begin_ env in
  ignore (Transaction.exec txn "update t set v = 10 where k = 'a'");
  ignore (Transaction.exec txn "delete from t where k = 'b'");
  ignore (Transaction.exec txn "insert into t values ('d', 4)");
  ignore (Transaction.exec txn "update t set v += 5 where k = 'd'");
  Alcotest.(check int) "changes applied" 4 (Tlog.length (Transaction.log txn));
  Transaction.abort txn;
  Alcotest.(check (list (pair string int)))
    "state restored"
    [ ("a", 1); ("c", 3); ("b", 2) ]
    (* note: the undo of a delete re-appends, so 'b' moves to the end *)
    (contents tb);
  Alcotest.(check bool) "status" true (Transaction.status txn = Transaction.Aborted)

let test_log_execute_order () =
  let env = setup () in
  let txn = begin_ env in
  ignore (Transaction.exec txn "insert into t values ('a', 1)");
  ignore (Transaction.exec txn "update t set v = 2 where k = 'a'");
  ignore (Transaction.exec txn "update t set v = 3 where k = 'a'");
  let entries = Tlog.entries (Transaction.log txn) in
  Alcotest.(check (list int)) "sequence" [ 1; 2; 3 ]
    (List.map (fun (e : Tlog.entry) -> e.execute_order) entries);
  (match entries with
  | [ { change = Tlog.Inserted _; _ };
      { change = Tlog.Updated { old_rec = o1; new_rec = n1 }; _ };
      { change = Tlog.Updated { old_rec = o2; new_rec = n2 }; _ } ] ->
    Alcotest.(check int) "chain old1" 1 (Value.to_int (Record.value o1 1));
    Alcotest.(check int) "chain new1" 2 (Value.to_int (Record.value n1 1));
    Alcotest.(check int) "chain old2" 2 (Value.to_int (Record.value o2 1));
    Alcotest.(check int) "chain new2" 3 (Value.to_int (Record.value n2 1))
  | _ -> Alcotest.fail "unexpected log shape");
  Transaction.commit txn;
  Transaction.cleanup txn

let test_pre_images_pinned_until_cleanup () =
  let env = setup () in
  let t0 = begin_ env in
  ignore (Transaction.exec t0 "insert into t values ('a', 1)");
  Transaction.commit t0;
  Transaction.cleanup t0;
  let txn = begin_ env in
  ignore (Transaction.exec txn "update t set v = 2 where k = 'a'");
  let old_rec =
    match Tlog.entries (Transaction.log txn) with
    | [ { change = Tlog.Updated { old_rec; _ }; _ } ] -> old_rec
    | _ -> Alcotest.fail "expected one update"
  in
  Transaction.commit txn;
  Record.reset_reclaimed ();
  Alcotest.(check int) "still pinned after commit" 0 (Record.reclaimed_count ());
  Alcotest.(check bool) "pin held" true (old_rec.Record.refcount > 0);
  Transaction.cleanup txn;
  Alcotest.(check int) "reclaimed at cleanup" 1 (Record.reclaimed_count ())

let test_locks_block_and_upgrade () =
  let locks = Lock.create () in
  let r = Lock.Rec ("t", 1) in
  Alcotest.(check bool) "t1 S" true (Lock.acquire locks ~owner:1 r Lock.S = Lock.Granted);
  Alcotest.(check bool) "t2 S shares" true
    (Lock.acquire locks ~owner:2 r Lock.S = Lock.Granted);
  (match Lock.acquire locks ~owner:1 r Lock.X with
  | Lock.Blocked [ 2 ] -> ()
  | _ -> Alcotest.fail "upgrade should block on the other holder");
  Lock.release_all locks ~owner:2;
  Alcotest.(check bool) "upgrade after release" true
    (Lock.acquire locks ~owner:1 r Lock.X = Lock.Granted);
  (match Lock.acquire locks ~owner:3 r Lock.S with
  | Lock.Blocked [ 1 ] -> ()
  | _ -> Alcotest.fail "S behind X should block");
  Alcotest.(check (option Alcotest.bool)) "holds X" (Some true)
    (Option.map (fun m -> m = Lock.X) (Lock.holds locks ~owner:1 r))

let test_lock_reentrant () =
  let locks = Lock.create () in
  let r = Lock.Rel "t" in
  Meter.reset ();
  ignore (Lock.acquire locks ~owner:1 r Lock.X);
  ignore (Lock.acquire locks ~owner:1 r Lock.X);
  ignore (Lock.acquire locks ~owner:1 r Lock.S);
  Alcotest.(check int) "one metered acquisition" 1 (Meter.get "get_lock");
  Lock.release_all locks ~owner:1;
  Alcotest.(check int) "one release" 1 (Meter.get "release_lock")

let test_deadlock_detection () =
  let locks = Lock.create () in
  let ra = Lock.Rec ("t", 1) and rb = Lock.Rec ("t", 2) in
  ignore (Lock.acquire locks ~owner:1 ra Lock.X);
  ignore (Lock.acquire locks ~owner:2 rb Lock.X);
  (match Lock.acquire locks ~owner:1 rb Lock.X with
  | Lock.Blocked [ 2 ] -> ()
  | _ -> Alcotest.fail "expected block");
  match Lock.acquire locks ~owner:2 ra Lock.X with
  | Lock.Deadlock _ -> ()
  | _ -> Alcotest.fail "cycle not detected"

(* Abort replay over a nastier change mix than [test_abort_undoes_everything]:
   chained updates to one row, a delete of a row inserted in the same
   transaction, and an update followed by delete of a pre-existing row.  The
   undo must walk the log backwards through every image chain. *)
let test_abort_replays_mixed_log () =
  let ((_, tb, _, _) as env) = setup () in
  let t0 = begin_ env in
  ignore (Transaction.exec t0 "insert into t values ('a',1),('b',2)");
  Transaction.commit t0;
  Transaction.cleanup t0;
  let before = contents tb in
  let txn = begin_ env in
  ignore (Transaction.exec txn "update t set v = 10 where k = 'a'");
  ignore (Transaction.exec txn "update t set v = 11 where k = 'a'");
  ignore (Transaction.exec txn "update t set v = 12 where k = 'a'");
  ignore (Transaction.exec txn "insert into t values ('c', 3)");
  ignore (Transaction.exec txn "update t set v = 30 where k = 'c'");
  ignore (Transaction.exec txn "delete from t where k = 'c'");
  ignore (Transaction.exec txn "update t set v = 20 where k = 'b'");
  ignore (Transaction.exec txn "delete from t where k = 'b'");
  Transaction.abort txn;
  Alcotest.(check (list (pair string int)))
    "mixed log fully undone"
    (List.sort compare before)
    (List.sort compare (contents tb));
  (* the table must stay usable: the undone rows are live, not ghosts *)
  let t2 = begin_ env in
  ignore (Transaction.exec t2 "update t set v = 100 where k = 'b'");
  Transaction.commit t2;
  Transaction.cleanup t2;
  Alcotest.(check (list (pair string int)))
    "post-abort update lands"
    [ ("a", 1); ("b", 100) ]
    (List.sort compare (contents tb))

(* The victim set returned with [Deadlock] names exactly the owners on the
   would-be cycle — the scheduler needs it to pick whom to abort. *)
let test_deadlock_victim_set () =
  let locks = Lock.create () in
  let ra = Lock.Rec ("t", 1)
  and rb = Lock.Rec ("t", 2)
  and rc = Lock.Rec ("t", 3) in
  (* three-party cycle: 1 waits on 2 waits on 3 waits on 1 *)
  ignore (Lock.acquire locks ~owner:1 ra Lock.X);
  ignore (Lock.acquire locks ~owner:2 rb Lock.X);
  ignore (Lock.acquire locks ~owner:3 rc Lock.X);
  (match Lock.acquire locks ~owner:1 rb Lock.X with
  | Lock.Blocked [ 2 ] -> ()
  | _ -> Alcotest.fail "1 should block on 2");
  (match Lock.acquire locks ~owner:2 rc Lock.X with
  | Lock.Blocked [ 3 ] -> ()
  | _ -> Alcotest.fail "2 should block on 3");
  (match Lock.acquire locks ~owner:3 ra Lock.X with
  | Lock.Deadlock victims ->
    Alcotest.(check (list int)) "victims are the cycle's blockers" [ 1 ] victims
  | _ -> Alcotest.fail "three-party cycle not detected");
  (* an independent owner is untouched by the refusal *)
  Alcotest.(check bool) "bystander still granted" true
    (Lock.acquire locks ~owner:4 (Lock.Rec ("t", 9)) Lock.X = Lock.Granted)

let test_lock_conflict_surfaces () =
  let ((_, _, _, _) as env) = setup () in
  let t1 = begin_ env in
  let t2 = begin_ env in
  ignore (Transaction.exec t1 "insert into t values ('a', 1)");
  ignore (Transaction.exec t1 "update t set v = 2 where k = 'a'");
  (match Transaction.exec t2 "update t set v = 3 where k = 'a'" with
  | exception Transaction.Lock_conflict { blockers; deadlock = false; _ } ->
    Alcotest.(check (list int)) "blocked by t1" [ Transaction.txid t1 ] blockers
  | _ -> Alcotest.fail "conflicting update should raise");
  Transaction.commit t1;
  Transaction.cleanup t1;
  Transaction.abort t2

let test_query_inside_txn_takes_shared_lock () =
  let ((_, _, locks, _) as env) = setup () in
  let txn = begin_ env in
  ignore (Transaction.exec txn "insert into t values ('a', 1)");
  ignore (Transaction.query txn "select k from t");
  Alcotest.(check bool) "table S lock held" true
    (List.mem_assoc (Transaction.txid txn) (Lock.holders locks (Lock.Rel "t")));
  Transaction.commit txn;
  Transaction.cleanup txn;
  Alcotest.(check (list (pair int Alcotest.reject))) "released" []
    (Lock.holders locks (Lock.Rel "t"))

let test_double_commit_rejected () =
  let env = setup () in
  let txn = begin_ env in
  Transaction.commit txn;
  match Transaction.commit txn with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double commit accepted"

let test_meter_canonical_counters () =
  let env = setup () in
  let t0 = begin_ env in
  ignore (Transaction.exec t0 "insert into t values ('a', 1)");
  Transaction.commit t0;
  Transaction.cleanup t0;
  Meter.reset ();
  let txn = begin_ env in
  ignore (Transaction.exec txn "update t set v = 2 where k = 'a'");
  Transaction.commit txn;
  Transaction.cleanup txn;
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) name expected (Meter.get name))
    [
      ("begin_transaction", 1); ("commit_transaction", 1); ("open_cursor", 1);
      ("fetch_cursor", 1); ("update_cursor", 1); ("close_cursor", 1);
      ("release_lock", 2) (* record X + table lock *);
    ]

(* Deferred release (multi-server commit): inside a defer window a commit's
   release_all keeps the locks physically held (a "zombie holder" standing
   for a transaction whose simulated service window is still open) while
   metering the release at commit time; the later flush frees them without
   metering anything. *)
let test_deferred_release_zombie () =
  let locks = Lock.create () in
  let r = Lock.Rec ("t", 1) in
  Meter.reset ();
  Lock.begin_defer locks;
  ignore (Lock.acquire locks ~owner:1 r Lock.X);
  Lock.release_all locks ~owner:1;
  Alcotest.(check int) "release metered at commit" 1 (Meter.get "release_lock");
  (match Lock.acquire locks ~owner:2 r Lock.X with
  | Lock.Blocked [ 1 ] -> ()
  | _ -> Alcotest.fail "zombie holder must still block");
  let owners = Lock.end_defer locks in
  Alcotest.(check (list int)) "deferred owners" [ 1 ] owners;
  List.iter (fun o -> Lock.flush locks ~owner:o) owners;
  Alcotest.(check int) "flush unmetered" 1 (Meter.get "release_lock");
  Alcotest.(check bool) "free after flush" true
    (Lock.acquire locks ~owner:2 r Lock.X = Lock.Granted)

(* An abort inside a defer window must release physically at once: its undo
   already took effect in real execution order, so no zombie may outlive
   it. *)
let test_abort_releases_inside_defer () =
  let locks = Lock.create () in
  let r = Lock.Rec ("t", 1) in
  Lock.begin_defer locks;
  ignore (Lock.acquire locks ~owner:1 r Lock.X);
  Lock.release_now locks ~owner:1;
  Alcotest.(check bool) "released immediately" true
    (Lock.acquire locks ~owner:2 r Lock.X = Lock.Granted);
  Alcotest.(check (list int)) "not a deferred owner" []
    (List.filter (fun o -> o = 1) (Lock.end_defer locks))

(* Upgrade under contention: a reader upgrading to X waits for the other
   reader (here a zombie holder) and is granted once it flushes; two
   readers both upgrading form an upgrade cycle the second must lose. *)
let test_upgrade_under_contention () =
  let locks = Lock.create () in
  let r = Lock.Rec ("t", 7) in
  Lock.begin_defer locks;
  ignore (Lock.acquire locks ~owner:1 r Lock.S);
  Lock.release_all locks ~owner:1;
  ignore (Lock.end_defer locks);
  (* owner 2 shares with the zombie, then tries to upgrade *)
  ignore (Lock.acquire locks ~owner:2 r Lock.S);
  (match Lock.acquire locks ~owner:2 r Lock.X with
  | Lock.Blocked [ 1 ] -> ()
  | _ -> Alcotest.fail "upgrade must wait for the zombie reader");
  Lock.flush locks ~owner:1;
  Alcotest.(check bool) "upgrade granted after flush" true
    (Lock.acquire locks ~owner:2 r Lock.X = Lock.Granted);
  Lock.release_now locks ~owner:2;
  (* dual-upgrade cycle: both hold S, both want X *)
  ignore (Lock.acquire locks ~owner:3 r Lock.S);
  ignore (Lock.acquire locks ~owner:4 r Lock.S);
  (match Lock.acquire locks ~owner:3 r Lock.X with
  | Lock.Blocked [ 4 ] -> ()
  | _ -> Alcotest.fail "first upgrader should wait");
  match Lock.acquire locks ~owner:4 r Lock.X with
  | Lock.Deadlock _ -> ()
  | _ -> Alcotest.fail "second upgrader must be refused (upgrade cycle)"

(* ------------------------------------------------------------------ *)
(* The lock manager against a reference: [Ref_lock] is the earlier
   implementation (a polymorphic [Hashtbl] probed once per question, a
   walk of every entry on each [clear_waiters]), kept as the oracle. *)

module Ref_lock = struct
  let c_get_lock = Meter.counter "get_lock"
  let c_release_lock = Meter.counter "release_lock"

  type entry = {
    mutable lholders : (int * Lock.mode) list;
    mutable lwaiters : (int * Lock.mode) list;
  }

  type t = {
    entries : (Lock.resource, entry) Hashtbl.t;
    owned : (int, Lock.resource list ref) Hashtbl.t;
    mutable defer : bool;
    mutable deferred : int list;
  }

  let create () =
    { entries = Hashtbl.create 256; owned = Hashtbl.create 32; defer = false; deferred = [] }

  let begin_defer t =
    t.defer <- true;
    t.deferred <- []

  let end_defer t =
    t.defer <- false;
    let owners = List.rev t.deferred in
    t.deferred <- [];
    owners

  let entry_of t res =
    match Hashtbl.find_opt t.entries res with
    | Some e -> e
    | None ->
      let e = { lholders = []; lwaiters = [] } in
      Hashtbl.add t.entries res e;
      e

  let owned_of t owner =
    match Hashtbl.find_opt t.owned owner with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add t.owned owner l;
      l

  let mode_leq a b =
    match (a, b) with Lock.S, _ -> true | Lock.X, Lock.X -> true | Lock.X, Lock.S -> false

  let wait_for_edges t =
    Hashtbl.fold
      (fun _ e acc ->
        List.fold_left
          (fun acc (w, wm) ->
            List.fold_left
              (fun acc (h, hm) ->
                if h <> w && (wm = Lock.X || hm = Lock.X) then (w, h) :: acc else acc)
              acc e.lholders)
          acc e.lwaiters)
      t.entries []

  let creates_cycle edges from to_ =
    let rec reachable seen node =
      if node = from then true
      else if List.mem node seen then false
      else List.exists (fun (a, b) -> a = node && reachable (node :: seen) b) edges
    in
    reachable [] to_

  let holds t ~owner res =
    match Hashtbl.find_opt t.entries res with
    | None -> None
    | Some e -> (
      match List.filter_map (fun (o, m) -> if o = owner then Some m else None) e.lholders with
      | [] -> None
      | l -> if List.mem Lock.X l then Some Lock.X else Some Lock.S)

  let acquire t ~owner res mode =
    let e = entry_of t res in
    match holds t ~owner res with
    | Some held when mode_leq mode held -> Lock.Granted
    | held_opt ->
      let conflicting =
        List.filter (fun (o, m) -> o <> owner && (mode = Lock.X || m = Lock.X)) e.lholders
      in
      if conflicting = [] then begin
        Meter.tick_c c_get_lock;
        (match held_opt with
        | Some _ ->
          e.lholders <-
            List.map (fun (o, m) -> if o = owner then (o, mode) else (o, m)) e.lholders
        | None ->
          e.lholders <- (owner, mode) :: e.lholders;
          let l = owned_of t owner in
          l := res :: !l);
        Lock.Granted
      end
      else begin
        let blockers = List.map fst conflicting in
        let edges = wait_for_edges t in
        if List.exists (fun b -> creates_cycle edges owner b) blockers then
          Lock.Deadlock blockers
        else begin
          if not (List.exists (fun (o, m) -> o = owner && m = mode) e.lwaiters) then
            e.lwaiters <- e.lwaiters @ [ (owner, mode) ];
          Lock.Blocked blockers
        end
      end

  let clear_waiters t ~owner =
    Hashtbl.iter
      (fun _ e -> e.lwaiters <- List.filter (fun (o, _) -> o <> owner) e.lwaiters)
      t.entries

  let release_physical ~tick t ~owner =
    (match Hashtbl.find_opt t.owned owner with
    | None -> ()
    | Some l ->
      List.iter
        (fun res ->
          match Hashtbl.find_opt t.entries res with
          | None -> ()
          | Some e ->
            let before = List.length e.lholders in
            e.lholders <- List.filter (fun (o, _) -> o <> owner) e.lholders;
            if tick && List.length e.lholders < before then Meter.tick_c c_release_lock;
            if e.lholders = [] && e.lwaiters = [] then Hashtbl.remove t.entries res)
        !l;
      Hashtbl.remove t.owned owner);
    clear_waiters t ~owner

  let release_now t ~owner = release_physical ~tick:true t ~owner

  let release_all t ~owner =
    if t.defer then begin
      (match Hashtbl.find_opt t.owned owner with
      | None -> ()
      | Some l -> List.iter (fun _ -> Meter.tick_c c_release_lock) !l);
      clear_waiters t ~owner;
      t.deferred <- owner :: t.deferred
    end
    else release_physical ~tick:true t ~owner

  let flush t ~owner = release_physical ~tick:false t ~owner

  let holders t res =
    match Hashtbl.find_opt t.entries res with None -> [] | Some e -> e.lholders

  let waiters t res =
    match Hashtbl.find_opt t.entries res with None -> [] | Some e -> e.lwaiters
end

type lock_op =
  | Acquire of int * Lock.resource * Lock.mode
  | Release_all of int
  | Release_now of int
  | Begin_defer
  | End_defer
  | Flush of int

let lock_resources =
  [ Lock.Rel "a"; Lock.Rel "b"; Lock.Rec ("a", 1); Lock.Rec ("a", 2); Lock.Rec ("b", 1) ]

let pp_lock_op = function
  | Acquire (o, r, m) ->
    Printf.sprintf "acquire %d %s %s" o
      (match r with Lock.Rel n -> n | Lock.Rec (n, i) -> Printf.sprintf "%s#%d" n i)
      (match m with Lock.S -> "S" | Lock.X -> "X")
  | Release_all o -> Printf.sprintf "release_all %d" o
  | Release_now o -> Printf.sprintf "release_now %d" o
  | Begin_defer -> "begin_defer"
  | End_defer -> "end_defer"
  | Flush o -> Printf.sprintf "flush %d" o

let gen_lock_ops =
  QCheck2.Gen.(
    let* n_owners = int_range 3 4 in
    let owner = int_range 1 n_owners in
    list_size (int_range 1 40)
      (frequency
         [
           ( 8,
             map3
               (fun o r m -> Acquire (o, r, m))
               owner (oneofl lock_resources) (oneofl [ Lock.S; Lock.X ]) );
           (3, map (fun o -> Release_all o) owner);
           (1, map (fun o -> Release_now o) owner);
           (1, pure Begin_defer);
           (1, pure End_defer);
           (1, map (fun o -> Flush o) owner);
         ]))

let prop_lock_matches_reference =
  QCheck2.Test.make ~name:"lock manager matches the reference" ~count:500
    ~print:(fun ops -> String.concat "; " (List.map pp_lock_op ops))
    gen_lock_ops
    (fun ops ->
      let lk = Lock.create () and rf = Ref_lock.create () in
      let ticks f =
        let g = Meter.get "get_lock" and r = Meter.get "release_lock" in
        let x = f () in
        (x, Meter.get "get_lock" - g, Meter.get "release_lock" - r)
      in
      let owners = [ 1; 2; 3; 4 ] in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Acquire (owner, res, mode) ->
              ticks (fun () -> Lock.acquire lk ~owner res mode)
              = ticks (fun () -> Ref_lock.acquire rf ~owner res mode)
            | Release_all owner ->
              ticks (fun () -> Lock.release_all lk ~owner)
              = ticks (fun () -> Ref_lock.release_all rf ~owner)
            | Release_now owner ->
              ticks (fun () -> Lock.release_now lk ~owner)
              = ticks (fun () -> Ref_lock.release_now rf ~owner)
            | Begin_defer ->
              Lock.begin_defer lk;
              Ref_lock.begin_defer rf;
              true
            | End_defer -> Lock.end_defer lk = Ref_lock.end_defer rf
            | Flush owner ->
              ticks (fun () -> Lock.flush lk ~owner)
              = ticks (fun () -> Ref_lock.flush rf ~owner)
          in
          same
          && List.for_all
               (fun res ->
                 Lock.holders lk res = Ref_lock.holders rf res
                 && Lock.waiters lk res = Ref_lock.waiters rf res
                 && List.for_all
                      (fun owner ->
                        Lock.holds lk ~owner res = Ref_lock.holds rf ~owner res)
                      owners)
               lock_resources
          || QCheck2.Test.fail_reportf "differs after %s" (pp_lock_op op))
        ops)

let suite =
  [
    ( "txn",
      [
        Alcotest.test_case "commit time" `Quick test_commit_time;
        Alcotest.test_case "abort undoes all changes" `Quick test_abort_undoes_everything;
        Alcotest.test_case "log execute_order + image chains" `Quick test_log_execute_order;
        Alcotest.test_case "pre-images pinned until cleanup" `Quick
          test_pre_images_pinned_until_cleanup;
        Alcotest.test_case "lock sharing, blocking, upgrade" `Quick
          test_locks_block_and_upgrade;
        Alcotest.test_case "reentrant locks unmetered" `Quick test_lock_reentrant;
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "abort replays mixed log" `Quick
          test_abort_replays_mixed_log;
        Alcotest.test_case "deadlock victim set" `Quick test_deadlock_victim_set;
        Alcotest.test_case "Lock_conflict surfaces" `Quick test_lock_conflict_surfaces;
        Alcotest.test_case "queries take shared locks" `Quick
          test_query_inside_txn_takes_shared_lock;
        Alcotest.test_case "double commit rejected" `Quick test_double_commit_rejected;
        Alcotest.test_case "canonical counters" `Quick test_meter_canonical_counters;
        Alcotest.test_case "deferred release keeps zombie holders" `Quick
          test_deferred_release_zombie;
        Alcotest.test_case "abort releases inside defer window" `Quick
          test_abort_releases_inside_defer;
        Alcotest.test_case "lock upgrade under contention" `Quick
          test_upgrade_under_contention;
        QCheck_alcotest.to_alcotest prop_lock_matches_reference;
      ] );
  ]
