(* Differential test of the rule firing path (§2, §6.3, Appendix A).

   The rule manager partitions a firing's condition results into per-key
   row ranges and appends each range straight into the queued TCB.  The
   reference below is the implementation that path replaced: partition
   the result into one sub-result per key (a value-list key per row),
   bind each into a fresh table, then absorb that table into the queued
   one.  The reference sees the results as values, so it binds by value;
   the pointer-provenance tables of the real path must read back the same
   rows.

   Random rules ([unique on] one or two columns over one or two bound
   tables, a bound table without a unique column, [commit_time]
   overrides, [unique] with no columns, non-unique rules) fire on random
   table contents through the real commit path, interleaved with batches
   starting, recovered (fully materialized) TCBs and shed coalescing.
   After every step the queued batches' bound rows, the
   ["bound_append"]/["partition_row"]/["unique_hash"] counts and the
   unique-queue WAL bytes must equal the reference's. *)

open Strip_relational
open Strip_txn
open Strip_core

(* ------------------------------------------------------------------ *)
(* The reference: bind -> partition -> absorb.                          *)

module Ref = struct
  type task = {
    key : Value.t list;
    bound : (string * Temp_table.t) list;
    mutable live : bool;
  }

  type t = {
    func : string;
    delay : float;
    uniqueness : Rule_ast.uniqueness;
    wal : Wal.t;
    mutable queued : task list;  (* creation order *)
    mutable last_fresh : (string * Temp_table.t) list;  (* non-unique *)
  }

  let create ~func ~delay ~uniqueness =
    {
      func;
      delay;
      uniqueness;
      wal = Wal.create ();
      queued = [];
      last_fresh = [];
    }

  let same_key a b = List.length a = List.length b && List.for_all2 Value.equal a b

  (* [Query.bind]: a fresh table, overridden columns stamped. *)
  let bind ~overrides ~name schema rows =
    let schema = Schema.unqualify schema in
    let tmp = Temp_table.create_materialized ~name ~schema in
    List.iter
      (fun row ->
        Temp_table.append_values tmp
          (Array.mapi
             (fun c v ->
               match List.assoc_opt (Schema.col schema c).Schema.cname overrides with
               | Some o -> o
               | None -> v)
             row))
      rows;
    tmp

  (* [Query.partition]: a value-list key per row, keys in first-seen
     order, rows in result order within a key. *)
  let partition schema rows ~cols =
    let pos = List.map (fun c -> Option.get (Schema.find schema c)) cols in
    let groups = ref [] in
    List.iter
      (fun row ->
        Meter.tick "partition_row";
        let key = List.map (fun i -> row.(i)) pos in
        match List.find_opt (fun (k, _) -> same_key k key) !groups with
        | Some (_, acc) -> acc := row :: !acc
        | None -> groups := (key, ref [ row ]) :: !groups)
      rows;
    List.rev_map (fun (k, acc) -> (k, List.rev !acc)) !groups

  let find r key =
    Meter.tick "unique_hash";
    List.find_opt (fun q -> q.live && same_key q.key key) r.queued

  let fire r ~now (named : (string * Schema.t * Value.t array list) list) =
    let overrides_for schema =
      if Schema.mem schema "commit_time" then [ ("commit_time", Value.Float now) ]
      else []
    in
    let bind_all parts =
      List.map
        (fun (name, schema, rows) ->
          (name, bind ~overrides:(overrides_for schema) ~name schema rows))
        parts
    in
    let images tables =
      List.map (fun (name, tmp) -> (name, Temp_table.to_rows tmp)) tables
    in
    let merge_or_create ~key parts =
      match find r key with
      | Some q ->
        let fresh = bind_all parts in
        ignore
          (Wal.append r.wal
             (Wal.Uq_merge { func = r.func; key; bound = images fresh }));
        List.iter
          (fun (name, tmp) -> Temp_table.absorb (List.assoc name q.bound) tmp)
          fresh
      | None ->
        let bound = bind_all parts in
        ignore
          (Wal.append r.wal
             (Wal.Uq_enqueue
                {
                  func = r.func;
                  key;
                  release_time = now +. r.delay;
                  created_at = now;
                  bound = images bound;
                }));
        Meter.tick "unique_hash";
        r.queued <- r.queued @ [ { key; bound; live = true } ]
    in
    match r.uniqueness with
    | Rule_ast.Not_unique -> r.last_fresh <- bind_all named
    | Rule_ast.Unique -> merge_or_create ~key:[] named
    | Rule_ast.Unique_on cols ->
      let has schema = List.exists (fun c -> Schema.mem schema c) cols in
      let with_cols = List.filter (fun (_, s, _) -> has s) named in
      let without = List.filter (fun (_, s, _) -> not (has s)) named in
      let parted =
        List.map
          (fun (name, schema, rows) ->
            let owned = List.filter (Schema.mem schema) cols in
            (name, schema, owned, partition schema rows ~cols:owned))
          with_cols
      in
      let rec combos acc = function
        | [] -> [ List.rev acc ]
        | (name, schema, owned, parts) :: rest ->
          List.concat_map
            (fun (key, sub) -> combos ((name, schema, owned, key, sub) :: acc) rest)
            parts
      in
      List.iter
        (fun combo ->
          let key =
            List.map
              (fun col ->
                List.find_map
                  (fun (_, _, owned, key, _) ->
                    List.assoc_opt col (List.combine owned key))
                  combo
                |> Option.get)
              cols
          in
          merge_or_create ~key
            (List.map (fun (name, schema, _, _, sub) -> (name, schema, sub)) combo
            @ without))
        (combos [] parted)

  (* A recovered TCB: materialized tables rebuilt from logged rows. *)
  let recover r ~key ~schemas rows =
    let bound =
      List.map
        (fun (name, rs) ->
          let tmp =
            Temp_table.create_materialized ~name ~schema:(List.assoc name schemas)
          in
          List.iter (Temp_table.append_values tmp) rs;
          (name, tmp))
        rows
    in
    Meter.tick "unique_hash";
    r.queued <- r.queued @ [ { key; bound; live = true } ]

  let images_of q =
    List.map (fun (name, tmp) -> (name, Temp_table.to_rows tmp)) q.bound

  (* The engine's shed coalescing: the victim's rows move into [into]. *)
  let coalesce r ~victim ~into =
    ignore
      (Wal.append r.wal
         (Wal.Uq_merge { func = r.func; key = into.key; bound = images_of victim }));
    ignore (Wal.append r.wal (Wal.Uq_release { func = r.func; key = victim.key }));
    List.iter
      (fun (name, tmp) -> Temp_table.absorb (List.assoc name into.bound) tmp)
      victim.bound;
    victim.live <- false

  let live r = List.filter (fun q -> q.live) r.queued
end

(* ------------------------------------------------------------------ *)
(* Random rules and steps.                                              *)

let schema_sql =
  {|create table t1 (a string, b int, c float, f int);
    create table t2 (d string, e int);
    create table trig (x int)|}

type spec = {
  b1 : string;  (* condition query, bound as b1 *)
  b2 : string option;  (* evaluated query, bound as b2 *)
  uniq : Rule_ast.uniqueness;
}

let b1_choices =
  [|
    "select a, b, c * 2.0 as c2 from t1 where f = 1";
    "select a, b, c * 2.0 as c2, 0.0 as commit_time from t1 where f = 1";
    "select a, b, e, c from t1, t2 where t1.b = t2.e and f = 1";
    "select t1.a as a, t1.b as b, t2.d as d2 from t1, t2 where t1.b = t2.e";
  |]

let b2_choices =
  [|
    "select d, e from t2 where e >= 1";
    "select d, count(*) as n, 0.0 as commit_time from t2 group by d";
  |]

let random_spec st =
  let b1 = b1_choices.(Random.State.int st (Array.length b1_choices)) in
  let b2 =
    if Random.State.bool st then
      Some b2_choices.(Random.State.int st (Array.length b2_choices))
    else None
  in
  let uniqs =
    [ Rule_ast.Not_unique; Rule_ast.Unique; Rule_ast.Unique_on [ "a" ];
      Rule_ast.Unique_on [ "a"; "b" ]; Rule_ast.Unique_on [ "b" ] ]
    @
    match b2 with
    | Some _ -> [ Rule_ast.Unique_on [ "a"; "d" ]; Rule_ast.Unique_on [ "d" ];
                  Rule_ast.Unique_on [ "d"; "b" ] ]
    | None -> []
  in
  { b1; b2; uniq = List.nth uniqs (Random.State.int st (List.length uniqs)) }

let delay = 1000.0

let rule_text spec =
  let uniq =
    match spec.uniq with
    | Rule_ast.Not_unique -> ""
    | Rule_ast.Unique -> "unique"
    | Rule_ast.Unique_on cols -> "unique on " ^ String.concat ", " cols
  in
  Printf.sprintf
    "create rule r on trig when inserted if %s bind as b1 then %s execute f \
     %s after %g seconds"
    spec.b1
    (match spec.b2 with Some q -> "evaluate " ^ q ^ " bind as b2" | None -> "")
    uniq delay

let spec_desc spec =
  Printf.sprintf "[%s | %s | %s]" spec.b1
    (Option.value spec.b2 ~default:"-")
    (match spec.uniq with
    | Rule_ast.Not_unique -> "non-unique"
    | Rule_ast.Unique -> "unique"
    | Rule_ast.Unique_on cols -> "unique on " ^ String.concat "," cols)

let strs = [| "x"; "y"; "z" |]

let random_t1_row st =
  Printf.sprintf "('%s', %d, %g, %d)"
    strs.(Random.State.int st 3)
    (Random.State.int st 3)
    (float_of_int (Random.State.int st 100) /. 4.0)
    (if Random.State.int st 4 = 0 then 0 else 1)

let random_t2_row st =
  Printf.sprintf "('%s', %d)" strs.(Random.State.int st 3) (Random.State.int st 3)

(* Replace the contents of t1 and t2 (old versions stay readable through
   the bound tables that pin them). *)
let reshuffle db st =
  let rows n f = String.concat ", " (List.init n (fun _ -> f st)) in
  ignore (Strip_db.exec db "delete from t1");
  ignore (Strip_db.exec db "delete from t2");
  let n1 = 1 + Random.State.int st 6 and n2 = Random.State.int st 4 in
  ignore (Strip_db.exec db ("insert into t1 values " ^ rows n1 random_t1_row));
  if n2 > 0 then
    ignore (Strip_db.exec db ("insert into t2 values " ^ rows n2 random_t2_row))

let counters = [ "bound_append"; "partition_row"; "unique_hash" ]

let ticks f =
  let before = Meter.snapshot () in
  f ();
  let d = Meter.diff before (Meter.snapshot ()) in
  List.map (fun c -> (c, Option.value (List.assoc_opt c d) ~default:0)) counters

(* The unique-queue frames appended to [w] since [from], as bytes. *)
let uq_bytes w ~from =
  Wal.fsync w;
  let slice = Wal.durable_slice w ~from_lsn:from in
  let recs = (Wal.scan_bytes ~base:from slice).Wal.records in
  let rec go acc = function
    | [] -> String.concat "" (List.rev acc)
    | (lsn, rec_) :: rest ->
      let next =
        match rest with (l, _) :: _ -> l | [] -> from + String.length slice
      in
      let acc =
        match rec_ with
        | Wal.Uq_enqueue _ | Wal.Uq_merge _ | Wal.Uq_release _ ->
          String.sub slice (lsn - from) (next - lsn) :: acc
        | _ -> acc
      in
      go acc rest
  in
  go [] recs

let render_rows rows =
  String.concat "; "
    (List.map
       (fun row ->
         String.concat ","
           (Array.to_list
              (Array.map
                 (function
                   | Value.Float f -> Printf.sprintf "%h" f
                   | v -> Value.to_string v)
                 row)))
       rows)

let render_tables tables =
  String.concat " "
    (List.map
       (fun (name, tmp) ->
         Printf.sprintf "%s{%s}" name (render_rows (Temp_table.to_rows tmp)))
       tables)

(* [Temp_table.absorb]'s precondition: the layouts match, or the
   destination is fully materialized.  Coalescing a recovered
   (materialized) victim into a pointer TCB is outside it. *)
let can_absorb ~(into : Task.t) (victim : Task.t) =
  List.for_all
    (fun (name, src) ->
      let dst = List.assoc name into.Task.bound in
      Temp_table.slots dst = 0
      || Temp_table.slots dst = Temp_table.slots src
         && Temp_table.static_map dst = Temp_table.static_map src)
    victim.Task.bound

let render_key key = String.concat "," (List.map Value.to_string key)

let run_trial seed =
  let st = Random.State.make [| seed |] in
  let spec = random_spec st in
  let what fmt = Printf.ksprintf (fun s -> Printf.sprintf "seed %d %s: %s" seed (spec_desc spec) s) fmt in
  let durable = Durable.create () in
  let db = Strip_db.create ~durable () in
  Strip_db.exec_script db schema_sql;
  Strip_db.register_function db "f" (fun _ -> ());
  Strip_db.create_rule db (rule_text spec);
  let mgr = Strip_db.rules db in
  let submitted = ref [] in
  Rule_manager.set_submitter mgr (fun task -> submitted := task :: !submitted);
  let reg = Rule_manager.registry mgr in
  let w = Durable.wal durable in
  let r = Ref.create ~func:"f" ~delay ~uniqueness:spec.uniq in
  let schemas = Option.get (Rule_manager.bound_schemas_for mgr ~func:"f") in
  let queued () =
    List.map (fun ((_, key), task) -> (key, task)) (Unique.entries reg)
  in
  let compare_queues step =
    let impl = queued () and refq = Ref.live r in
    Alcotest.(check (list string))
      (what "step %d: queued keys" step)
      (List.map (fun (q : Ref.task) -> render_key q.Ref.key) refq)
      (List.map (fun (key, _) -> render_key key) impl);
    List.iter2
      (fun (q : Ref.task) (_, (task : Task.t)) ->
        Alcotest.(check string)
          (what "step %d: bound rows of key %s" step (render_key q.Ref.key))
          (render_tables q.Ref.bound) (render_tables task.Task.bound))
      refq impl
  in
  let compare_step step ~impl_ticks ~ref_ticks ~impl_wal ~ref_wal =
    Alcotest.(check (list (pair string int)))
      (what "step %d: meter counts" step) ref_ticks impl_ticks;
    Alcotest.(check string) (what "step %d: WAL bytes" step) ref_wal impl_wal;
    compare_queues step
  in
  let fresh_key () =
    let v () =
      match Random.State.int st 2 with
      | 0 -> Value.Str strs.(Random.State.int st 3)
      | _ -> Value.Int (Random.State.int st 3)
    in
    match spec.uniq with
    | Rule_ast.Unique_on cols -> List.map (fun _ -> v ()) cols
    | _ -> []
  in
  let vi = ref 0 and ii = ref 0 in
  for step = 1 to 40 do
    Clock.advance_by (Strip_db.clock db) 0.25;
    let live_impl = queued () in
    let dice = Random.State.int st 10 in
    if dice = 0 && live_impl <> [] then begin
      (* a batch starts: later firings for its key start a new one *)
      let i = Random.State.int st (List.length live_impl) in
      (snd (List.nth live_impl i)).Task.state <- Task.Running;
      (List.nth (Ref.live r) i).Ref.live <- false
    end
    else if dice = 1 && spec.uniq <> Rule_ast.Not_unique then begin
      (* a TCB rebuilt by crash recovery, for a key not queued *)
      let key = fresh_key () in
      if
        not
          (List.exists (fun (k, _) -> Ref.same_key k key) live_impl)
      then begin
        let rows =
          List.map
            (fun (name, schema) ->
              ( name,
                List.init (Random.State.int st 3) (fun _ ->
                    Array.map
                      (fun (c : Schema.column) ->
                        match c.Schema.cty with
                        | Value.TStr -> Value.Str strs.(Random.State.int st 3)
                        | Value.TInt -> Value.Int (Random.State.int st 9)
                        | _ -> Value.Float (float_of_int (Random.State.int st 9)))
                      (Array.of_list (Schema.columns schema))) ))
            schemas
        in
        let now = Strip_db.now db in
        let impl_ticks =
          ticks (fun () ->
              Rule_manager.resubmit_recovered mgr ~ctx:None ~func:"f" ~key
                ~release_time:(now +. delay) ~created_at:now ~bound:rows)
        in
        let ref_ticks = ticks (fun () -> Ref.recover r ~key ~schemas rows) in
        compare_step step ~impl_ticks ~ref_ticks ~impl_wal:"" ~ref_wal:""
      end
    end
    else if
      dice = 2
      && List.length live_impl >= 2
      &&
      let n = List.length live_impl in
      vi := Random.State.int st n;
      ii := (!vi + 1 + Random.State.int st (n - 1)) mod n;
      can_absorb ~into:(snd (List.nth live_impl !ii))
        (snd (List.nth live_impl !vi))
    then begin
      (* shed coalescing, as the engine performs it *)
      let vi = !vi and ii = !ii in
      let victim = snd (List.nth live_impl vi)
      and into = snd (List.nth live_impl ii) in
      let refs = Ref.live r in
      let from = Wal.durable_end w and rfrom = Wal.durable_end r.Ref.wal in
      let impl_ticks =
        ticks (fun () ->
            Rule_manager.log_shed mgr ~victim ~into:(Some into);
            List.iter
              (fun (name, tmp) ->
                Temp_table.absorb (List.assoc name into.Task.bound) tmp)
              victim.Task.bound;
            Task.cancel victim)
      in
      let ref_ticks =
        ticks (fun () ->
            Ref.coalesce r ~victim:(List.nth refs vi) ~into:(List.nth refs ii))
      in
      compare_step step ~impl_ticks ~ref_ticks ~impl_wal:(uq_bytes w ~from)
        ~ref_wal:(uq_bytes r.Ref.wal ~from:rfrom)
    end
    else begin
      reshuffle db st;
      (* the firing's inputs, as the rule's queries will see them *)
      let result sql =
        let res = Strip_db.query db sql in
        (Query.result_schema res, Query.rows res)
      in
      let b1 = result spec.b1 in
      let named =
        ("b1", fst b1, snd b1)
        :: (match spec.b2 with
           | Some q ->
             let s, rows = result q in
             [ ("b2", s, rows) ]
           | None -> [])
      in
      let fires = snd b1 <> [] in
      let now = Strip_db.now db in
      let n_submitted = List.length !submitted in
      let from = Wal.durable_end w and rfrom = Wal.durable_end r.Ref.wal in
      let impl_ticks =
        ticks (fun () -> ignore (Strip_db.exec db "insert into trig values (1)"))
      in
      let ref_ticks =
        ticks (fun () ->
            (* the trigger's transition table holds its one inserted row *)
            Meter.tick "bound_append";
            if fires then Ref.fire r ~now named)
      in
      compare_step step ~impl_ticks ~ref_ticks ~impl_wal:(uq_bytes w ~from)
        ~ref_wal:(uq_bytes r.Ref.wal ~from:rfrom);
      if spec.uniq = Rule_ast.Not_unique && fires then begin
        Alcotest.(check int) (what "step %d: one task per firing" step)
          (n_submitted + 1) (List.length !submitted);
        Alcotest.(check string)
          (what "step %d: non-unique bound rows" step)
          (render_tables r.Ref.last_fresh)
          (render_tables (List.hd !submitted).Task.bound)
      end
    end
  done

let test_firing_matches_reference () =
  for seed = 1 to 120 do
    run_trial seed
  done

(* Every rule shape the generator can draw is drawn, so no case of the
   firing path goes untested by accident. *)
let test_generator_covers_shapes () =
  let seen = Hashtbl.create 16 in
  for seed = 1 to 120 do
    let spec = random_spec (Random.State.make [| seed |]) in
    Hashtbl.replace seen (spec.b1, spec.b2 <> None, spec.uniq) ()
  done;
  Array.iter
    (fun b1 ->
      List.iter
        (fun uniq ->
          Alcotest.(check bool)
            (Printf.sprintf "drawn: %s" (spec_desc { b1; b2 = None; uniq }))
            true
            (Hashtbl.mem seen (b1, false, uniq)
            || Hashtbl.mem seen (b1, true, uniq)))
        [ Rule_ast.Not_unique; Rule_ast.Unique; Rule_ast.Unique_on [ "a" ];
          Rule_ast.Unique_on [ "a"; "b" ] ])
    b1_choices;
  Alcotest.(check bool) "drawn: a unique key split across two tables" true
    (Hashtbl.fold
       (fun (_, two, uniq) () acc ->
         acc || (two && uniq = Rule_ast.Unique_on [ "a"; "d" ]))
       seen false)

let suite =
  [
    ( "rules/firing",
      [
        Alcotest.test_case "firing path matches bind-partition-absorb" `Quick
          test_firing_matches_reference;
        Alcotest.test_case "the generator draws every rule shape" `Quick
          test_generator_covers_shapes;
      ] );
  ]
