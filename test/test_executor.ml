(* Differential test of the push-based query executor.

   The reference below is the list executor the push-based one replaced:
   every operator materializes its whole input as a list of rows (a fresh
   value array and record-pointer array per row) before producing its
   own.  It picks join strategies by the same rules (merge join over two
   ordered indexes, index join into an indexed standard table, hash join,
   nested loop) and ticks the same meters.

   Random standard tables (hash and ordered indexes, or none) and
   temporary tables (one with pointer columns, one fully materialized)
   are queried by random plans of one to three joined relations under
   filters, projections, grouping, ordering, limits and duplicate
   elimination.  For each plan the executor's rows, in order, what
   [Query.bind] reads back (through the result's record pointers) and
   every meter delta must equal the reference's — for a one-shot run, for
   a prepared plan's first run and for its repeat, which reuses the
   plan's buffers, and with the index join's hash-build fallback. *)

open Strip_relational

(* ------------------------------------------------------------------ *)
(* The reference: a list-building executor.                            *)

module Ref = struct
  type xrow = {
    vals : Value.t array;
    srcs : Record.t array;
  }

  module VKey = struct
    type t = Value.t list

    let equal a b = List.length a = List.length b && List.for_all2 Value.equal a b
    let hash k = Hashtbl.hash (List.map Value.hash k)
  end

  module VTbl = Hashtbl.Make (VKey)

  let schema cat ~env plan = Query.schema_of cat ~env plan
  let resolve cat ~env plan e = Expr.resolve (schema cat ~env plan) e

  let rec conjuncts = function
    | Expr.Binop (Expr.And, a, b) -> conjuncts a @ conjuncts b
    | e -> [ e ]

  let split_equi ~left_arity pred =
    let equi = ref [] and residual = ref [] in
    List.iter
      (fun c ->
        match c with
        | Expr.Binop (Expr.Eq, Expr.Bound i, Expr.Bound j)
          when i < left_arity && j >= left_arity ->
          equi := (i, j - left_arity) :: !equi
        | Expr.Binop (Expr.Eq, Expr.Bound j, Expr.Bound i)
          when i < left_arity && j >= left_arity ->
          equi := (i, j - left_arity) :: !equi
        | c -> residual := c :: !residual)
      (conjuncts pred);
    (List.rev !equi, List.rev !residual)

  let std cat ~env = function
    | Query.Scan { rel; _ } -> (
      match Catalog.resolve cat ~env rel with
      | Some (Catalog.Std tb) -> Some tb
      | _ -> None)
    | _ -> None

  type strategy =
    | Merge of Index.t * Index.t
    | Index_probe of Index.t
    | Hash
    | Nested

  let strategy ~ltb ~rtb equi =
    let cols tb pick =
      List.map (fun p -> (Schema.col (Table.schema tb) (pick p)).Schema.cname) equi
    in
    match (equi, rtb) with
    | [], _ -> Nested
    | _, None -> Hash
    | _, Some rtb -> (
      match Table.index_on rtb (cols rtb snd) with
      | None -> Hash
      | Some ridx -> (
        let lordered =
          match ltb with
          | None -> None
          | Some ltb -> (
            match Table.index_on ltb (cols ltb fst) with
            | Some lidx when Index.kind lidx = Index.Ordered -> Some lidx
            | _ -> None)
        in
        match lordered with
        | Some lidx when Index.kind ridx = Index.Ordered -> Merge (lidx, ridx)
        | _ -> Index_probe ridx))

  let combine l r =
    Meter.tick "join_row";
    { vals = Array.append l.vals r.vals; srcs = Array.append l.srcs r.srcs }

  let record_row (r : Record.t) = { vals = r.Record.values; srcs = [| r |] }

  let rec exec cat ~env plan =
    match plan with
    | Query.Scan { rel; _ } -> (
      match Catalog.resolve cat ~env rel with
      | Some (Catalog.Std tb) ->
        let acc = ref [] in
        Table.iter tb (fun r ->
            Meter.tick "seq_row";
            acc := record_row r :: !acc);
        List.rev !acc
      | Some (Catalog.Tmp tmp) ->
        let acc = ref [] in
        Temp_table.iter tmp (fun row ->
            Meter.tick "seq_row";
            acc :=
              {
                vals = Temp_table.row_values tmp row;
                srcs =
                  Array.init (Temp_table.slots tmp) (Temp_table.row_source tmp row);
              }
              :: !acc);
        List.rev !acc
      | None -> failwith "unknown relation")
    | Query.Filter (pred, p) ->
      let pred = resolve cat ~env p pred in
      List.filter (fun x -> Expr.eval_pred pred x.vals) (exec cat ~env p)
    | Query.Join (l, r, pred) -> join cat ~env plan l r pred
    | Query.Project (items, p) ->
      let exprs =
        Array.of_list (List.map (fun (it : Query.select_item) -> resolve cat ~env p it.expr) items)
      in
      List.map
        (fun x ->
          Meter.tick "row_construct";
          { vals = Array.map (fun e -> Expr.eval e x.vals) exprs; srcs = x.srcs })
        (exec cat ~env p)
    | Query.Group { keys; aggs; having; input } -> group cat ~env plan keys aggs having input
    | Query.Order (specs, p) ->
      let specs = List.map (fun (e, o) -> (resolve cat ~env p e, o)) specs in
      let keyed =
        List.map
          (fun x ->
            Meter.tick "sort_row";
            (List.map (fun (e, o) -> (Expr.eval e x.vals, o)) specs, x))
          (exec cat ~env p)
      in
      let rec cmp a b =
        match (a, b) with
        | (va, o) :: a', (vb, _) :: b' ->
          let c = Value.compare va vb in
          let c = match o with Query.Asc -> c | Query.Desc -> -c in
          if c <> 0 then c else cmp a' b'
        | _ -> 0
      in
      List.map snd (List.stable_sort (fun (a, _) (b, _) -> cmp a b) keyed)
    | Query.Limit (n, p) -> List.filteri (fun i _ -> i < n) (exec cat ~env p)
    | Query.Distinct p ->
      let seen = VTbl.create 64 in
      List.filter
        (fun x ->
          Meter.tick "hash_probe";
          let key = Array.to_list x.vals in
          if VTbl.mem seen key then false
          else begin
            VTbl.add seen key ();
            true
          end)
        (exec cat ~env p)

  and join cat ~env plan l r pred =
    let la = Schema.arity (schema cat ~env l) in
    let equi, residual =
      match pred with
      | None -> ([], [])
      | Some p -> split_equi ~left_arity:la (resolve cat ~env plan p)
    in
    (* the residual conjuncts, evaluated as one predicate *)
    let residual =
      match residual with
      | [] -> None
      | c :: cs -> Some (List.fold_left (fun acc c -> Expr.Binop (Expr.And, acc, c)) c cs)
    in
    let probe_key x = List.map (fun (i, _) -> x.vals.(i)) equi in
    let out = ref [] in
    let emit x =
      match residual with
      | Some p when not (Expr.eval_pred p x.vals) -> ()
      | _ -> out := x :: !out
    in
    (match strategy ~ltb:(std cat ~env l) ~rtb:(std cat ~env r) equi with
    | Merge (lidx, ridx) ->
      let rec merge ls rs =
        match (ls, rs) with
        | [], _ | _, [] -> ()
        | (lk, lrecs) :: ls', (rk, rrecs) :: rs' ->
          Meter.tick "merge_step";
          let c = Index.compare_keys lk rk in
          if c < 0 then merge ls' rs
          else if c > 0 then merge ls rs'
          else begin
            List.iter
              (fun lr ->
                List.iter (fun rr -> emit (combine (record_row lr) (record_row rr))) rrecs)
              lrecs;
            merge ls' rs'
          end
      in
      merge (Index.ordered_entries lidx) (Index.ordered_entries ridx)
    | Index_probe idx ->
      List.iter
        (fun lrow ->
          List.iter
            (fun r -> emit (combine lrow (record_row r)))
            (Index.lookup idx (probe_key lrow)))
        (exec cat ~env l)
    | Hash ->
      let lrows = exec cat ~env l in
      let rrows = exec cat ~env r in
      let tbl = VTbl.create 256 in
      List.iter
        (fun rrow ->
          Meter.tick "hash_build";
          let key = List.map (fun (_, j) -> rrow.vals.(j)) equi in
          let cur = match VTbl.find_opt tbl key with Some l -> l | None -> [] in
          VTbl.replace tbl key (rrow :: cur))
        rrows;
      List.iter
        (fun lrow ->
          Meter.tick "hash_probe";
          match VTbl.find_opt tbl (probe_key lrow) with
          | None -> ()
          | Some rrows -> List.iter (fun rrow -> emit (combine lrow rrow)) (List.rev rrows))
        lrows
    | Nested ->
      let lrows = exec cat ~env l in
      let rrows = exec cat ~env r in
      List.iter (fun lrow -> List.iter (fun rrow -> emit (combine lrow rrow)) rrows) lrows);
    List.rev !out

  and group cat ~env plan keys aggs having input =
    let keys =
      List.map (fun (it : Query.select_item) -> resolve cat ~env input it.expr) keys
    in
    let aggs =
      List.map
        (fun (a, _) ->
          match a with
          | Query.Count_star -> (`Count_star, Expr.Const Value.Null)
          | Query.Count e -> (`Count, resolve cat ~env input e)
          | Query.Sum e -> (`Sum, resolve cat ~env input e)
          | Query.Avg e -> (`Avg, resolve cat ~env input e)
          | Query.Min e -> (`Min, resolve cat ~env input e)
          | Query.Max e -> (`Max, resolve cat ~env input e))
        aggs
    in
    let having = Option.map (resolve cat ~env plan) having in
    (* per aggregate: count, float sum, running value *)
    let groups = VTbl.create 64 and order = ref [] in
    List.iter
      (fun x ->
        Meter.tick "agg_row";
        let key = List.map (fun e -> Expr.eval e x.vals) keys in
        let accs =
          match VTbl.find_opt groups key with
          | Some a -> a
          | None ->
            Meter.tick "group_init";
            let a = Array.init (List.length aggs) (fun _ -> (ref 0, ref 0.0, ref Value.Null)) in
            VTbl.add groups key a;
            order := key :: !order;
            a
        in
        List.iteri
          (fun i (kind, e) ->
            let n, f, v = accs.(i) in
            match kind with
            | `Count_star -> incr n
            | `Count -> if not (Value.is_null (Expr.eval e x.vals)) then incr n
            | `Sum ->
              let x = Expr.eval e x.vals in
              if not (Value.is_null x) then begin
                incr n;
                v := if Value.is_null !v then x else Value.add !v x
              end
            | `Avg ->
              let x = Expr.eval e x.vals in
              if not (Value.is_null x) then begin
                incr n;
                f := !f +. Value.to_float x
              end
            | `Min ->
              let x = Expr.eval e x.vals in
              if (not (Value.is_null x)) && (Value.is_null !v || Value.compare x !v < 0)
              then v := x
            | `Max ->
              let x = Expr.eval e x.vals in
              if (not (Value.is_null x)) && (Value.is_null !v || Value.compare x !v > 0)
              then v := x)
          aggs)
      (exec cat ~env input);
    if keys = [] && VTbl.length groups = 0 then begin
      VTbl.add groups [] (Array.init (List.length aggs) (fun _ -> (ref 0, ref 0.0, ref Value.Null)));
      order := [ [] ]
    end;
    List.rev !order
    |> List.map (fun key ->
           let accs = VTbl.find groups key in
           let vals =
             List.mapi
               (fun i (kind, _) ->
                 let n, f, v = accs.(i) in
                 match kind with
                 | `Count_star | `Count -> Value.Int !n
                 | `Sum | `Min | `Max -> !v
                 | `Avg -> if !n = 0 then Value.Null else Value.Float (!f /. float_of_int !n))
               aggs
           in
           Meter.tick "row_construct";
           { vals = Array.of_list (key @ vals); srcs = [||] })
    |> List.filter (fun x ->
           match having with None -> true | Some h -> Expr.eval_pred h x.vals)
end

(* ------------------------------------------------------------------ *)
(* Random databases.                                                    *)

type db = {
  t1 : (int * string * float) list;  (* t1(a, b, c) *)
  t2 : (int * string * float) list;  (* t2(a, d, e) *)
  t1_index : Index.kind option;  (* on a *)
  t2_index : Index.kind option;  (* on a *)
  t2_pair : bool;  (* t2 indexed on (a, d) rather than a *)
  p_rows : int list;  (* t1 rows (by position) that temp table p points at *)
  m_rows : (int * float) list;  (* temp table m(a, f), materialized *)
}

let gen_db =
  let open QCheck2.Gen in
  let small = int_range 0 4 in
  let str = map (fun i -> [| "u"; "v"; "w" |].(i)) (int_range 0 2) in
  let flt = map (fun i -> float_of_int i /. 4.0) (int_range 0 12) in
  (* ordered indexes on both tables (a merge join) are drawn often *)
  let kind =
    frequencyl [ (2, Some Index.Ordered); (1, Some Index.Hash); (1, None) ]
  in
  let* t1 = list_size (int_range 0 8) (triple small str flt) in
  let* t2 = list_size (int_range 0 8) (triple small str flt) in
  let* t1_index = kind and* t2_index = kind
  and* t2_pair = frequencyl [ (3, false); (1, true) ] in
  let* p_rows = list_size (int_range 0 5) (int_range 0 7) in
  let* m_rows = list_size (int_range 0 5) (pair small flt) in
  return { t1; t2; t1_index; t2_index; t2_pair; p_rows; m_rows }

let build db =
  let cat = Catalog.create () in
  let table name cols rows idx ~pair =
    let tb =
      Catalog.create_table cat ~name
        ~schema:(Schema.of_list [ ("a", Value.TInt); (List.nth cols 0, Value.TStr); (List.nth cols 1, Value.TFloat) ])
    in
    (match idx with
    | Some kind ->
      ignore
        (Table.create_index tb ~name:(name ^ "_a") ~kind
           ~cols:(if pair then [ "a"; List.nth cols 0 ] else [ "a" ]))
    | None -> ());
    List.map
      (fun (a, s, f) -> Table.insert tb [| Value.Int a; Value.Str s; Value.Float f |])
      rows
  in
  let recs1 = table "t1" [ "b"; "c" ] db.t1 db.t1_index ~pair:false in
  ignore (table "t2" [ "d"; "e" ] db.t2 db.t2_index ~pair:db.t2_pair);
  (* p(a, b, k): a and b read through a pointer to a t1 record, k
     materialized *)
  let p =
    Temp_table.create ~name:"p"
      ~schema:(Schema.of_list [ ("a", Value.TInt); ("b", Value.TStr); ("k", Value.TInt) ])
      ~nslots:1
      ~prov:[| Temp_table.From_record (0, 0); Temp_table.From_record (0, 1); Temp_table.Computed 0 |]
  in
  if recs1 <> [] then
    List.iteri
      (fun k i ->
        Temp_table.append p
          ~srcs:[| List.nth recs1 (i mod List.length recs1) |]
          ~mats:[| Value.Int k |])
      db.p_rows;
  let m =
    Temp_table.create_materialized ~name:"m"
      ~schema:(Schema.of_list [ ("a", Value.TInt); ("f", Value.TFloat) ])
  in
  List.iter (fun (a, f) -> Temp_table.append_values m [| Value.Int a; Value.Float f |]) db.m_rows;
  (cat, [ ("p", p); ("m", m) ])

(* ------------------------------------------------------------------ *)
(* Random plans.                                                        *)

(* A base relation: its alias, int column a, one other numeric column. *)
type base = { rel : string; alias : string; num : string option }

let bases =
  [|
    { rel = "t1"; alias = "x"; num = Some "c" };
    { rel = "t2"; alias = "y"; num = Some "e" };
    { rel = "p"; alias = "p"; num = Some "k" };
    { rel = "m"; alias = "m"; num = Some "f" };
  |]

let qcol (b : base) c = Expr.col ~qual:b.alias c
let scan (b : base) = Query.Scan { rel = b.rel; alias = Some b.alias }

(* One to three distinct relations joined left-deep; each join's
   predicate is an equi join on a (with or without a residual), a theta
   join or a cross product.  Returns the plan and its relations. *)
let gen_from =
  let open QCheck2.Gen in
  let* n = int_range 1 3 in
  (* half the time t1 then t2: the order a merge join needs *)
  let* order = oneof [ shuffle_a (Array.copy bases); return (Array.copy bases) ] in
  let rels = Array.to_list (Array.sub order 0 n) in
  let first = List.hd rels in
  let rec joins acc placed = function
    | [] -> return acc
    | (r : base) :: rest ->
      let* l = oneofl placed in
      let* kind = int_range 0 5 in
      let pred =
        match kind with
        | 0 | 1 | 2 -> Some Expr.(qcol l "a" =: qcol r "a")
        | 3 -> (
          match (l.num, r.num) with
          | Some ln, Some rn -> Some Expr.(qcol l "a" =: qcol r "a" &&: (qcol l ln <=: qcol r rn))
          | _ -> Some Expr.(qcol l "a" =: qcol r "a"))
        | 4 -> Some Expr.(qcol l "a" <: qcol r "a")
        | _ -> None
      in
      joins (Query.Join (acc, scan r, pred)) (r :: placed) rest
  in
  let* plan = joins (scan first) [ first ] (List.tl rels) in
  return (plan, rels)

let gen_plan =
  let open QCheck2.Gen in
  let* from, rels = gen_from in
  let* pick = oneofl rels in
  let num = Option.value pick.num ~default:"a" in
  let* plan =
    let* f = int_range 0 2 in
    let* k = int_range 0 4 in
    return
      (match f with
      | 0 -> from
      | 1 -> Query.Filter (Expr.(qcol pick "a" >=: int k), from)
      | _ -> Query.Filter (Expr.(qcol pick num <: float (float_of_int k /. 2.0)), from))
  in
  (* the top: all columns, a projection, or a grouping; [out] names the
     output columns order and having may refer to *)
  let* top = int_range 0 2 in
  let* plan, out =
    match top with
    | 0 -> return (plan, [ qcol pick "a"; qcol pick num ])
    | 1 ->
      return
        ( Query.Project
            ( [
                Query.item ~alias:"o0" (qcol pick "a");
                Query.item ~alias:"o1" (qcol pick num);
                Query.item ~alias:"o2" Expr.((qcol pick "a" *: int 2) +: int 1);
              ],
              plan ),
          [ Expr.col "o0"; Expr.col "o1"; Expr.col "o2" ] )
    | _ ->
      let* keyed = bool in
      let* with_having = bool in
      let keys = if keyed then [ Query.item ~alias:"g0" (qcol pick "a") ] else [] in
      let n = qcol pick num in
      let aggs =
        [
          (Query.Count_star, "n");
          (Query.Sum n, "s");
          (Query.Avg n, "av");
          (Query.Min n, "lo");
          (Query.Max (qcol pick "a"), "hi");
          (Query.Count n, "nn");
        ]
      in
      let having = if with_having then Some Expr.(col "n" >=: int 2) else None in
      return
        ( Query.Group { keys; aggs; having; input = plan },
          (if keyed then [ Expr.col "g0" ] else []) @ [ Expr.col "n"; Expr.col "s" ] )
  in
  let* plan =
    let* o = int_range 0 2 in
    match o with
    | 0 -> return plan
    | _ ->
      let* specs =
        list_size (int_range 1 2)
          (pair (oneofl out) (oneofl [ Query.Asc; Query.Desc ]))
      in
      return (Query.Order (specs, plan))
  in
  let* tail = int_range 0 4 in
  let* n = int_range 0 6 in
  return
    (match tail with
    | 0 -> Query.Limit (n, plan)
    | 1 -> Query.Distinct plan
    | 2 -> Query.Limit (n, Query.Distinct plan)
    | 3 -> Query.Distinct (Query.Limit (n, plan))
    | _ -> plan)

(* ------------------------------------------------------------------ *)
(* The property.                                                        *)

let render_value = function
  | Value.Float f -> Printf.sprintf "%h" f
  | v -> Value.to_string v

let render rows =
  String.concat "; "
    (List.map (fun r -> String.concat "," (Array.to_list (Array.map render_value r))) rows)

let metered f =
  let before = Meter.snapshot () in
  let x = f () in
  (x, Meter.diff before (Meter.snapshot ()))

let render_ticks d = String.concat " " (List.map (fun (n, k) -> Printf.sprintf "%s=%d" n k) d)

let agrees (db, plan, physical) =
  let cat, env = build db in
  let expected, ref_ticks = metered (fun () -> Ref.exec cat ~env plan) in
  let expected_rows = List.map (fun (x : Ref.xrow) -> x.vals) expected in
  let check what ok detail =
    if not ok then
      QCheck2.Test.fail_reportf "%s differs\nplan:\n%s\n%s" what
        (Query.explain ~cat ~env plan) detail
  in
  let prepared = Query.prepare plan in
  let execution label run =
    let result, ticks = metered run in
    let got = Query.rows result in
    check (label ^ ": rows") (render got = render expected_rows)
      (Printf.sprintf "executor:  %s\nreference: %s" (render got) (render expected_rows));
    check (label ^ ": meter deltas") (ticks = ref_ticks)
      (Printf.sprintf "executor:  %s\nreference: %s" (render_ticks ticks)
         (render_ticks ref_ticks));
    (* bound tables read pointer columns through the result's record
       pointers, so a wrong pointer reads back a wrong value *)
    let tmp = Query.bind ~name:"b" (Query.all_rows result) 0 in
    let back = Temp_table.to_rows tmp in
    Temp_table.retire tmp;
    check (label ^ ": bound rows") (render back = render expected_rows)
      (Printf.sprintf "bound:     %s\nreference: %s" (render back) (render expected_rows))
  in
  Query.physical_index_join := physical;
  Fun.protect
    ~finally:(fun () -> Query.physical_index_join := true)
    (fun () ->
      execution "one-shot run" (fun () -> Query.run cat ~env plan);
      execution "first prepared run" (fun () -> Query.run_prepared cat ~env prepared);
      execution "repeat prepared run" (fun () -> Query.run_prepared cat ~env prepared));
  true

let prop_executor =
  QCheck2.Test.make ~name:"push executor agrees with the list reference" ~count:3000
    QCheck2.Gen.(triple gen_db gen_plan (map (fun i -> i > 0) (int_range 0 3)))
    agrees

let suite =
  [ ("executor", [ QCheck_alcotest.to_alcotest prop_executor ]) ]
