let c_agg_row = Meter.counter "agg_row"
let c_group_init = Meter.counter "group_init"
let c_hash_build = Meter.counter "hash_build"
let c_hash_probe = Meter.counter "hash_probe"
let c_index_probe = Meter.counter "index_probe"
let c_join_row = Meter.counter "join_row"
let c_merge_step = Meter.counter "merge_step"
let c_partition_row = Meter.counter "partition_row"
let c_row_construct = Meter.counter "row_construct"
let c_seq_row = Meter.counter "seq_row"
let c_sort_row = Meter.counter "sort_row"

type order = Asc | Desc

type agg =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t

type select_item = {
  expr : Expr.t;
  alias : string option;
}

type plan =
  | Scan of { rel : string; alias : string option }
  | Filter of Expr.t * plan
  | Join of plan * plan * Expr.t option
  | Project of select_item list * plan
  | Group of {
      keys : select_item list;
      aggs : (agg * string) list;
      having : Expr.t option;
      input : plan;
    }
  | Order of (Expr.t * order) list * plan
  | Limit of int * plan
  | Distinct of plan

let item ?alias expr = { expr; alias }

exception Plan_error of string

let plan_error fmt = Printf.ksprintf (fun s -> raise (Plan_error s)) fmt

(* Column provenance within an executing result: a verbatim copy of a
   standard-record attribute ([Slot]) or a computed value ([Mat]). *)
type colprov = Slot of int * int | Mat

type xdesc = {
  schema : Schema.t;
  nslots : int;
  colprov : colprov array;
  (* bound layouts of this descriptor, one per list of overridden column
     names, computed on first bind (see [layout_for]) *)
  mutable layouts : (string list * Temp_table.layout) list;
}

type xrow = {
  vals : Value.t array;
  srcs : Record.t array;
}

type result = {
  desc : xdesc;
  xrows : xrow list;  (* result order *)
}

(* ------------------------------------------------------------------ *)
(* Descriptor computation (shared by [run] and [schema_of]).           *)

let item_name i (it : select_item) =
  match it.alias with
  | Some a -> a
  | None -> (
    match it.expr with
    | Expr.Col (_, n) -> n
    | _ -> Printf.sprintf "col%d" i)

let item_type schema (it : select_item) =
  match Expr.infer_type schema it.expr with
  | Some ty -> ty
  | None -> Value.TFloat  (* unregistered functions default to float *)

let agg_type schema = function
  | Count_star | Count _ -> Value.TInt
  | Avg _ -> Value.TFloat
  | Sum e | Min e | Max e -> (
    match Expr.infer_type schema e with Some ty -> ty | None -> Value.TFloat)

let scan_desc relation alias =
  let base = Catalog.relation_schema relation in
  let name = Option.value alias ~default:(Catalog.relation_name relation) in
  let schema = Schema.requalify name base in
  match relation with
  | Catalog.Std _ ->
    {
      schema;
      nslots = 1;
      colprov = Array.init (Schema.arity schema) (fun i -> Slot (0, i));
      layouts = [];
    }
  | Catalog.Tmp tmp ->
    let prov = Temp_table.static_map tmp in
    {
      schema;
      nslots = Temp_table.slots tmp;
      colprov =
        Array.map
          (function
            | Temp_table.From_record (s, o) -> Slot (s, o)
            | Temp_table.Computed _ -> Mat)
          prov;
      layouts = [];
    }

let join_desc dl dr =
  let schema =
    try Schema.append dl.schema dr.schema
    with Invalid_argument msg -> plan_error "join: %s" msg
  in
  let shift = function Slot (s, o) -> Slot (s + dl.nslots, o) | Mat -> Mat in
  {
    schema;
    nslots = dl.nslots + dr.nslots;
    colprov = Array.append dl.colprov (Array.map shift dr.colprov);
    layouts = [];
  }

let project_desc d items =
  let cols =
    List.mapi
      (fun i it -> Schema.column (item_name i it) (item_type d.schema it))
      items
  in
  let schema =
    try Schema.make cols
    with Invalid_argument msg ->
      plan_error "projection has duplicate output columns (%s); use AS aliases"
        msg
  in
  let colprov =
    items
    |> List.map (fun it ->
           match Expr.resolve d.schema it.expr with
           | Expr.Bound i -> d.colprov.(i)
           | _ -> Mat
           | exception Expr.Unknown_column c ->
             plan_error "unknown column %s" c)
    |> Array.of_list
  in
  { schema; nslots = d.nslots; colprov; layouts = [] }

let group_desc d keys aggs =
  let key_cols =
    List.mapi
      (fun i it -> Schema.column (item_name i it) (item_type d.schema it))
      keys
  in
  let agg_cols =
    List.map (fun (a, name) -> Schema.column name (agg_type d.schema a)) aggs
  in
  let schema =
    try Schema.make (key_cols @ agg_cols)
    with Invalid_argument msg -> plan_error "group by: %s" msg
  in
  {
    schema;
    nslots = 0;
    colprov = Array.make (Schema.arity schema) Mat;
    layouts = [];
  }

let rec desc_of cat ~env = function
  | Scan { rel; alias } -> (
    match Catalog.resolve cat ~env rel with
    | Some relation -> scan_desc relation alias
    | None -> plan_error "unknown relation %s" rel)
  | Filter (_, p) -> desc_of cat ~env p
  | Join (l, r, _) -> join_desc (desc_of cat ~env l) (desc_of cat ~env r)
  | Project (items, p) -> project_desc (desc_of cat ~env p) items
  | Group { keys; aggs; input; _ } -> group_desc (desc_of cat ~env input) keys aggs
  | Order (_, p) -> desc_of cat ~env p
  | Limit (_, p) -> desc_of cat ~env p
  | Distinct p -> desc_of cat ~env p

(* ------------------------------------------------------------------ *)
(* Predicate analysis for join strategies.                              *)

let rec conjuncts = function
  | Expr.Binop (Expr.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* Split a resolved join predicate into equi pairs (left position, right
   position relative to the right input) and residual conjuncts. *)
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

module VKey = struct
  type t = Value.t list

  let equal a b = List.length a = List.length b && List.for_all2 Value.equal a b
  let hash k = Hashtbl.hash (List.map Value.hash k)
end

module VTbl = Hashtbl.Make (VKey)

(* ------------------------------------------------------------------ *)
(* Join strategy selection.

   A pure function of the logical plan shape and the current catalog, so
   that [explain], the compiled executor and any cached decision always
   agree.  The choices, in priority order:

   - merge join: both inputs are bare standard-table scans whose equi
     columns are covered by [Ordered] indexes on both sides — stream the
     two red-black trees in key order (a two-way leapfrog);
   - index join: the right input is a bare standard-table scan with any
     index exactly covering its equi columns — probe per left row;
   - hash join: any other equi join;
   - nested loop: no equi conjunct (cross products and pure theta joins). *)

type strategy_pick =
  | PMerge of (Table.t * Index.t) * (Table.t * Index.t)
  | PIndex of Table.t * Index.t
  | PHash
  | PNested

let equi_cols tb ~side equi =
  List.map
    (fun (i, j) ->
      (Schema.col (Table.schema tb) (match side with `L -> i | `R -> j))
        .Schema.cname)
    equi

let pick_strategy ~ltb ~rtb equi =
  match (equi, rtb) with
  | [], _ -> PNested
  | _, None -> PHash
  | _, Some rtb -> (
    match Table.index_on rtb (equi_cols rtb ~side:`R equi) with
    | None -> PHash
    | Some ridx -> (
      let lordered =
        match ltb with
        | None -> None
        | Some ltb -> (
          match Table.index_on ltb (equi_cols ltb ~side:`L equi) with
          | Some lidx when Index.kind lidx = Index.Ordered -> Some (ltb, lidx)
          | _ -> None)
      in
      match lordered with
      | Some (ltb, lidx) when Index.kind ridx = Index.Ordered ->
        PMerge ((ltb, lidx), (rtb, ridx))
      | _ -> PIndex (rtb, ridx)))

(* ------------------------------------------------------------------ *)
(* Compiled plans.

   [run] compiles each plan once into a mirror tree of nodes carrying
   per-node memos: the computed descriptor, the predicates and select items
   resolved against it, and the chosen join strategy.  A memo is validated
   by physical identity on every execution — a scan is still valid when the
   resolved relation carries the same schema and static map as before (so
   transition tables, whose layouts are shared per base table, revalidate
   in O(1)), and a join is still valid while its input descriptors are the
   memoized ones and no index has been added to or dropped from the scanned
   tables ({!Table.index_gen}).  On any mismatch the node silently
   recompiles, which makes catalog rebuilds (crash recovery, failover)
   transparent.  Only resolution work is cached; every execution re-runs
   the physical operators, so meter ticks are unchanged. *)

type scan_memo = {
  sm_std : Table.t option;  (* [Some tb] iff the relation is standard *)
  sm_schema : Schema.t;  (* resolved relation's schema (identity key) *)
  sm_name : string;
  sm_prov : Temp_table.provenance array;  (* [||] for standard tables *)
  sm_desc : xdesc;
}

type jstrategy =
  | JMerge of (Table.t * Index.t) * (Table.t * Index.t)
  | JIndex of Table.t * Index.t
  | JHash
  | JNested

type join_memo = {
  jm_ldesc : xdesc;  (* identity keys: the input descriptors *)
  jm_rdesc : xdesc;
  jm_desc : xdesc;
  jm_equi : (int * int) list;
  jm_residual : Expr.t option;
  jm_strategy : jstrategy;
  jm_deps : (Table.t * int) list;  (* index generations the choice assumed *)
}

type agg_kind = [ `Count_star | `Count | `Sum | `Avg | `Min | `Max ]

type group_memo = {
  gm_in : xdesc;
  gm_desc : xdesc;
  gm_keys : Expr.t list;
  gm_aggs : (agg_kind * Expr.t) list;
  gm_having : Expr.t option;
}

type cnode =
  | CScan of cscan
  | CFilter of cfilter
  | CJoin of cjoin
  | CProject of cproject
  | CGroup of cgroup
  | COrder of corder
  | CLimit of int * cnode
  | CDistinct of cnode

and cscan = { rel : string; alias : string option; mutable sm : scan_memo option }
and cfilter = { fsub : cnode; fpred : Expr.t; mutable fm : (xdesc * Expr.t) option }
and cjoin = { jl : cnode; jr : cnode; jpred : Expr.t option; mutable jm : join_memo option }

and cproject = {
  psub : cnode;
  pitems : select_item list;
  mutable pm : (xdesc * xdesc * Expr.t list) option;
}

and cgroup = {
  gsub : cnode;
  gkeys : select_item list;
  gaggs : (agg * string) list;
  ghaving : Expr.t option;
  mutable gm : group_memo option;
}

and corder = {
  osub : cnode;
  ospecs : (Expr.t * order) list;
  mutable om : (xdesc * (Expr.t * order) list) option;
}

let rec compile_node = function
  | Scan { rel; alias } -> CScan { rel; alias; sm = None }
  | Filter (pred, p) -> CFilter { fsub = compile_node p; fpred = pred; fm = None }
  | Join (l, r, pred) ->
    CJoin { jl = compile_node l; jr = compile_node r; jpred = pred; jm = None }
  | Project (items, p) -> CProject { psub = compile_node p; pitems = items; pm = None }
  | Group { keys; aggs; having; input } ->
    CGroup
      { gsub = compile_node input; gkeys = keys; gaggs = aggs; ghaving = having; gm = None }
  | Order (specs, p) -> COrder { osub = compile_node p; ospecs = specs; om = None }
  | Limit (n, p) -> CLimit (n, compile_node p)
  | Distinct p -> CDistinct (compile_node p)

let resolve_in schema e =
  try Expr.resolve schema e
  with Expr.Unknown_column c -> plan_error "unknown column %s" c

let scan_valid m relation =
  match (relation, m.sm_std) with
  | Catalog.Std tb, Some tb' -> tb == tb'
  | Catalog.Tmp tmp, None ->
    Temp_table.schema tmp == m.sm_schema
    && Temp_table.name tmp = m.sm_name
    && Temp_table.same_static_map tmp m.sm_prov
  | _ -> false

let ensure_scan cat ~env (s : cscan) =
  match Catalog.resolve cat ~env s.rel with
  | None -> plan_error "unknown relation %s" s.rel
  | Some relation -> (
    match s.sm with
    | Some m when scan_valid m relation -> (relation, m.sm_desc)
    | _ ->
      let desc = scan_desc relation s.alias in
      s.sm <-
        Some
          {
            sm_std = (match relation with Catalog.Std tb -> Some tb | _ -> None);
            sm_schema = Catalog.relation_schema relation;
            sm_name = Catalog.relation_name relation;
            sm_prov =
              (match relation with
              | Catalog.Tmp t -> Temp_table.static_map t
              | Catalog.Std _ -> [||]);
            sm_desc = desc;
          };
      (relation, desc))

let scan_std cat ~env = function
  | CScan s -> (
    match Catalog.resolve cat ~env s.rel with
    | Some (Catalog.Std tb) -> Some tb
    | _ -> None)
  | _ -> None

(* [censure] validates the memo chain and returns the node's descriptor
   without executing anything (and without ticking any meter). *)
let rec censure cat ~env = function
  | CScan s -> snd (ensure_scan cat ~env s)
  | CFilter f -> censure cat ~env f.fsub
  | CJoin j -> (ensure_join cat ~env j).jm_desc
  | CProject p ->
    let _, desc, _ = ensure_project cat ~env p in
    desc
  | CGroup g -> (ensure_group cat ~env g).gm_desc
  | COrder o -> censure cat ~env o.osub
  | CLimit (_, sub) -> censure cat ~env sub
  | CDistinct sub -> censure cat ~env sub

and ensure_join cat ~env (j : cjoin) =
  let ldesc = censure cat ~env j.jl in
  let rdesc = censure cat ~env j.jr in
  let valid m =
    m.jm_ldesc == ldesc && m.jm_rdesc == rdesc
    && List.for_all (fun (tb, g) -> Table.index_gen tb = g) m.jm_deps
  in
  match j.jm with
  | Some m when valid m -> m
  | _ ->
    let desc = join_desc ldesc rdesc in
    let la = Schema.arity ldesc.schema in
    let resolved_pred = Option.map (resolve_in desc.schema) j.jpred in
    let equi, residual =
      match resolved_pred with
      | None -> ([], [])
      | Some p -> split_equi ~left_arity:la p
    in
    let residual_pred =
      match residual with
      | [] -> None
      | c :: cs ->
        Some (List.fold_left (fun acc c -> Expr.Binop (Expr.And, acc, c)) c cs)
    in
    let pick =
      pick_strategy
        ~ltb:(scan_std cat ~env j.jl)
        ~rtb:(scan_std cat ~env j.jr)
        equi
    in
    let strategy, deps =
      match pick with
      | PNested -> (JNested, [])
      | PHash ->
        (* a later CREATE INDEX on a scanned side can upgrade the choice *)
        let deps =
          List.filter_map
            (Option.map (fun tb -> (tb, Table.index_gen tb)))
            [ scan_std cat ~env j.jl; scan_std cat ~env j.jr ]
        in
        (JHash, deps)
      | PIndex (tb, idx) ->
        let deps =
          List.filter_map
            (Option.map (fun tb -> (tb, Table.index_gen tb)))
            [ scan_std cat ~env j.jl; Some tb ]
        in
        (JIndex (tb, idx), deps)
      | PMerge ((ltb, lidx), (rtb, ridx)) ->
        ( JMerge ((ltb, lidx), (rtb, ridx)),
          [ (ltb, Table.index_gen ltb); (rtb, Table.index_gen rtb) ] )
    in
    let m =
      {
        jm_ldesc = ldesc;
        jm_rdesc = rdesc;
        jm_desc = desc;
        jm_equi = equi;
        jm_residual = residual_pred;
        jm_strategy = strategy;
        jm_deps = deps;
      }
    in
    j.jm <- Some m;
    m

and ensure_project cat ~env (p : cproject) =
  let ind = censure cat ~env p.psub in
  match p.pm with
  | Some ((ind', _, _) as m) when ind' == ind -> m
  | _ ->
    let desc = project_desc ind p.pitems in
    let resolved = List.map (fun it -> resolve_in ind.schema it.expr) p.pitems in
    let m = (ind, desc, resolved) in
    p.pm <- Some m;
    m

and ensure_group cat ~env (g : cgroup) =
  let ind = censure cat ~env g.gsub in
  match g.gm with
  | Some m when m.gm_in == ind -> m
  | _ ->
    let desc = group_desc ind g.gkeys g.gaggs in
    let resolve e = resolve_in ind.schema e in
    let key_exprs = List.map (fun it -> resolve it.expr) g.gkeys in
    let agg_specs =
      List.map
        (fun (a, _) ->
          match a with
          | Count_star -> ((`Count_star :> agg_kind), Expr.Const Value.Null)
          | Count e -> (`Count, resolve e)
          | Sum e -> (`Sum, resolve e)
          | Avg e -> (`Avg, resolve e)
          | Min e -> (`Min, resolve e)
          | Max e -> (`Max, resolve e))
        g.gaggs
    in
    let having = Option.map (resolve_in desc.schema) g.ghaving in
    let m =
      {
        gm_in = ind;
        gm_desc = desc;
        gm_keys = key_exprs;
        gm_aggs = agg_specs;
        gm_having = having;
      }
    in
    g.gm <- Some m;
    m

let ensure_filter cat ~env (f : cfilter) =
  let ind = censure cat ~env f.fsub in
  match f.fm with
  | Some (ind', p) when ind' == ind -> p
  | _ ->
    let p = resolve_in ind.schema f.fpred in
    f.fm <- Some (ind, p);
    p

let ensure_order cat ~env (o : corder) =
  let ind = censure cat ~env o.osub in
  match o.om with
  | Some (ind', specs) when ind' == ind -> specs
  | _ ->
    let specs = List.map (fun (e, ord) -> (resolve_in ind.schema e, ord)) o.ospecs in
    o.om <- Some (ind, specs);
    specs

(* ------------------------------------------------------------------ *)
(* Execution.                                                           *)

(* Testing knob: when [false], the indexed-probe physical path is replaced
   by a hash-build fallback that reproduces the modeled path bit for bit —
   same "index_probe"/"join_row" ticks, same output order (an index posting
   list holds records newest-first, i.e. by descending rid).  Strategy
   *selection* is unaffected, so simulated results must not change; the
   differential tests assert exactly that. *)
let physical_index_join = ref true

let scan_rows relation desc =
  match relation with
  | Catalog.Std tb ->
    let acc = ref [] in
    Table.iter tb (fun r ->
        Meter.tick_c c_seq_row;
        acc := { vals = r.Record.values; srcs = [| r |] } :: !acc);
    ignore desc;
    List.rev !acc
  | Catalog.Tmp tmp ->
    let nslots = Temp_table.slots tmp in
    let acc = ref [] in
    Temp_table.iter tmp (fun row ->
        Meter.tick_c c_seq_row;
        acc :=
          {
            vals = Temp_table.row_values tmp row;
            srcs = Array.init nslots (fun s -> Temp_table.row_source tmp row s);
          }
          :: !acc);
    List.rev !acc

let combine_rows lrow rrow =
  Meter.tick_c c_join_row;
  {
    vals = Array.append lrow.vals rrow.vals;
    srcs = Array.append lrow.srcs rrow.srcs;
  }

let record_row (r : Record.t) = { vals = r.Record.values; srcs = [| r |] }

let rec cexec cat ~env node : result =
  match node with
  | CScan s ->
    let relation, desc = ensure_scan cat ~env s in
    { desc; xrows = scan_rows relation desc }
  | CFilter f ->
    let pred = ensure_filter cat ~env f in
    let r = cexec cat ~env f.fsub in
    { r with xrows = List.filter (fun x -> Expr.eval_pred pred x.vals) r.xrows }
  | CJoin j -> cexec_join cat ~env j
  | CProject p ->
    let _, desc, resolved = ensure_project cat ~env p in
    let r = cexec cat ~env p.psub in
    let exprs = Array.of_list resolved in
    let project x =
      Meter.tick_c c_row_construct;
      {
        vals = Array.map (fun e -> Expr.eval e x.vals) exprs;
        srcs = x.srcs;
      }
    in
    { desc; xrows = List.map project r.xrows }
  | CGroup g -> cexec_group cat ~env g
  | COrder o ->
    let specs = ensure_order cat ~env o in
    let r = cexec cat ~env o.osub in
    let keyed =
      List.map
        (fun x ->
          Meter.tick_c c_sort_row;
          (List.map (fun (e, ord) -> (Expr.eval e x.vals, ord)) specs, x))
        r.xrows
    in
    let compare_keys (ka, _) (kb, _) =
      let rec loop a b =
        match (a, b) with
        | [], [] -> 0
        | (va, o) :: a', (vb, _) :: b' ->
          let c = Value.compare va vb in
          let c = match o with Asc -> c | Desc -> -c in
          if c <> 0 then c else loop a' b'
        | _ -> 0
      in
      loop ka kb
    in
    { r with xrows = List.map snd (List.stable_sort compare_keys keyed) }
  | CLimit (n, sub) ->
    let r = cexec cat ~env sub in
    let rec take n = function
      | [] -> []
      | _ when n <= 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    { r with xrows = take n r.xrows }
  | CDistinct sub ->
    let r = cexec cat ~env sub in
    let seen = VTbl.create 64 in
    let xrows =
      List.filter
        (fun x ->
          Meter.tick_c c_hash_probe;
          let key = Array.to_list x.vals in
          if VTbl.mem seen key then false
          else begin
            VTbl.add seen key ();
            true
          end)
        r.xrows
    in
    { r with xrows }

and cexec_join cat ~env (j : cjoin) =
  let m = ensure_join cat ~env j in
  let equi = m.jm_equi in
  let keep combined =
    match m.jm_residual with
    | None -> true
    | Some p -> Expr.eval_pred p combined.vals
  in
  let probe_key lrow = List.map (fun (i, _) -> lrow.vals.(i)) equi in
  let xrows =
    match m.jm_strategy with
    | JIndex (tb, idx) ->
      let lres = cexec cat ~env j.jl in
      if !physical_index_join then begin
        (* accumulator instead of concat_map/filter_map: this loop runs
           once per probed posting on every rule check, so avoid the
           per-match option and per-left-row list append *)
        let acc = ref [] in
        List.iter
          (fun lrow ->
            List.iter
              (fun (rec_ : Record.t) ->
                let combined = combine_rows lrow (record_row rec_) in
                if keep combined then acc := combined :: !acc)
              (Index.lookup idx (probe_key lrow)))
          lres.xrows;
        List.rev !acc
      end
      else begin
        (* unmetered hash build, then per-left-row probes that replay the
           modeled index path's ticks and posting order *)
        let tbl = VTbl.create 256 in
        Table.iter tb (fun r ->
            let key = List.map (fun (_, jj) -> Record.value r jj) equi in
            let cur =
              match VTbl.find_opt tbl key with Some l -> l | None -> []
            in
            VTbl.replace tbl key (r :: cur));
        List.concat_map
          (fun lrow ->
            Meter.tick_c c_index_probe;
            let matches =
              match VTbl.find_opt tbl (probe_key lrow) with
              | Some l ->
                List.sort
                  (fun (a : Record.t) (b : Record.t) -> compare b.rid a.rid)
                  l
              | None -> []
            in
            List.filter_map
              (fun rec_ ->
                let combined = combine_rows lrow (record_row rec_) in
                if keep combined then Some combined else None)
              matches)
          lres.xrows
      end
    | JMerge ((_ltb, lidx), (_rtb, ridx)) ->
      (* Neither side is scanned: stream both ordered indexes in key order
         and intersect, one "merge_step" per pointer advance.  Output is in
         ascending key order; within a key, left then right postings
         oldest-first (ascending rid). *)
      let acc = ref [] in
      let rec merge ls rs =
        match (ls, rs) with
        | [], _ | _, [] -> ()
        | (lk, lrecs) :: ls', (rk, rrecs) :: rs' ->
          Meter.tick_c c_merge_step;
          let c = Index.compare_keys lk rk in
          if c < 0 then merge ls' rs
          else if c > 0 then merge ls rs'
          else begin
            List.iter
              (fun (lr : Record.t) ->
                let lrow = record_row lr in
                List.iter
                  (fun (rr : Record.t) ->
                    let combined = combine_rows lrow (record_row rr) in
                    if keep combined then acc := combined :: !acc)
                  rrecs)
              lrecs;
            merge ls' rs'
          end
      in
      merge (Index.ordered_entries lidx) (Index.ordered_entries ridx);
      List.rev !acc
    | JHash ->
      let lres = cexec cat ~env j.jl in
      let rres = cexec cat ~env j.jr in
      let tbl = VTbl.create 256 in
      List.iter
        (fun rrow ->
          Meter.tick_c c_hash_build;
          let key = List.map (fun (_, jj) -> rrow.vals.(jj)) equi in
          let cur = match VTbl.find_opt tbl key with Some l -> l | None -> [] in
          VTbl.replace tbl key (rrow :: cur))
        rres.xrows;
      let acc = ref [] in
      List.iter
        (fun lrow ->
          Meter.tick_c c_hash_probe;
          match VTbl.find_opt tbl (probe_key lrow) with
          | None -> ()
          | Some rrows ->
            List.iter
              (fun rrow ->
                let combined = combine_rows lrow rrow in
                if keep combined then acc := combined :: !acc)
              (List.rev rrows))
        lres.xrows;
      List.rev !acc
    | JNested ->
      let lres = cexec cat ~env j.jl in
      let rres = cexec cat ~env j.jr in
      let acc = ref [] in
      List.iter
        (fun lrow ->
          List.iter
            (fun rrow ->
              let combined = combine_rows lrow rrow in
              if keep combined then acc := combined :: !acc)
            rres.xrows)
        lres.xrows;
      List.rev !acc
  in
  { desc = m.jm_desc; xrows }

and cexec_group cat ~env (g : cgroup) =
  let m = ensure_group cat ~env g in
  let r = cexec cat ~env g.gsub in
  let desc = m.gm_desc in
  let key_exprs = m.gm_keys in
  let agg_specs = m.gm_aggs in
  (* Accumulator per aggregate: (count, sum as float, current value). *)
  let module Acc = struct
    type t = {
      mutable n : int;
      mutable fsum : float;
      mutable v : Value.t;  (* running sum / min / max *)
    }

    let make () = { n = 0; fsum = 0.0; v = Value.Null }
  end in
  let groups = VTbl.create 64 in
  let group_order = ref [] in
  List.iter
    (fun x ->
      Meter.tick_c c_agg_row;
      let key = List.map (fun e -> Expr.eval e x.vals) key_exprs in
      let accs =
        match VTbl.find_opt groups key with
        | Some a -> a
        | None ->
          Meter.tick_c c_group_init;
          let a = Array.init (List.length agg_specs) (fun _ -> Acc.make ()) in
          VTbl.add groups key a;
          group_order := key :: !group_order;
          a
      in
      List.iteri
        (fun i (kind, e) ->
          let acc = accs.(i) in
          match kind with
          | `Count_star -> acc.Acc.n <- acc.Acc.n + 1
          | `Count ->
            let v = Expr.eval e x.vals in
            if not (Value.is_null v) then acc.Acc.n <- acc.Acc.n + 1
          | `Sum ->
            let v = Expr.eval e x.vals in
            if not (Value.is_null v) then begin
              acc.Acc.n <- acc.Acc.n + 1;
              acc.Acc.v <-
                (if Value.is_null acc.Acc.v then v else Value.add acc.Acc.v v)
            end
          | `Avg ->
            let v = Expr.eval e x.vals in
            if not (Value.is_null v) then begin
              acc.Acc.n <- acc.Acc.n + 1;
              acc.Acc.fsum <- acc.Acc.fsum +. Value.to_float v
            end
          | `Min ->
            let v = Expr.eval e x.vals in
            if not (Value.is_null v) then
              if Value.is_null acc.Acc.v || Value.compare v acc.Acc.v < 0 then
                acc.Acc.v <- v
          | `Max ->
            let v = Expr.eval e x.vals in
            if not (Value.is_null v) then
              if Value.is_null acc.Acc.v || Value.compare v acc.Acc.v > 0 then
                acc.Acc.v <- v)
        agg_specs)
    r.xrows;
  (* A grand aggregate (no keys) over an empty input still yields one row. *)
  if key_exprs = [] && VTbl.length groups = 0 then begin
    VTbl.add groups [] (Array.init (List.length agg_specs) (fun _ -> Acc.make ()));
    group_order := [ [] ]
  end;
  let finish key accs =
    let agg_vals =
      List.mapi
        (fun i (kind, _) ->
          let acc = accs.(i) in
          match kind with
          | `Count_star | `Count -> Value.Int acc.Acc.n
          | `Sum | `Min | `Max -> acc.Acc.v
          | `Avg ->
            if acc.Acc.n = 0 then Value.Null
            else Value.Float (acc.Acc.fsum /. float_of_int acc.Acc.n))
        agg_specs
    in
    Meter.tick_c c_row_construct;
    { vals = Array.of_list (key @ agg_vals); srcs = [||] }
  in
  let xrows =
    List.rev_map (fun key -> finish key (VTbl.find groups key)) !group_order
  in
  let xrows =
    match m.gm_having with
    | None -> xrows
    | Some h -> List.filter (fun x -> Expr.eval_pred h x.vals) xrows
  in
  { desc; xrows }

(* ------------------------------------------------------------------ *)
(* Compilation cache, keyed on the plan value's physical identity.  The
   rule system compiles a plan once per rule and re-runs the same value on
   every check, so this turns all per-execution schema/expression
   resolution into pointer comparisons.  Ad-hoc plans (fresh values) just
   compile again; the table is reset when it grows past a bound so one-shot
   plans cannot accumulate. *)

module PTbl = Hashtbl.Make (struct
  type t = plan

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let compiled : cnode PTbl.t = PTbl.create 64

let compile plan =
  match PTbl.find_opt compiled plan with
  | Some c -> c
  | None ->
    if PTbl.length compiled > 512 then PTbl.reset compiled;
    let c = compile_node plan in
    PTbl.add compiled plan c;
    c

let run cat ~env plan = cexec cat ~env (compile plan)

let schema_of cat ~env plan = (desc_of cat ~env plan).schema

let result_schema r = r.desc.schema
let row_count r = List.length r.xrows
let rows r = List.map (fun x -> Array.copy x.vals) r.xrows

(* ------------------------------------------------------------------ *)
(* Row selections and the Appendix-A partition.                         *)

(* A partition groups a result's rows by the values at [ppos] without
   building a key per row: [porder] lists row indices key by key (result
   order within a key), key [k] owning [porder.(pstart.(k))] up to
   [porder.(pstart.(k + 1) - 1)]; keys are numbered in first-seen order. *)
type partition = {
  pdesc : xdesc;
  prows : xrow array;  (* result order *)
  porder : int array;
  pstart : int array;  (* one entry per key, plus the end *)
  ppos : int array;  (* partition column positions *)
}

type rows = All of result | Range of partition * int

let all_rows r = All r
let key_rows p k = Range (p, k)

let rows_length = function
  | All r -> List.length r.xrows
  | Range (p, k) -> p.pstart.(k + 1) - p.pstart.(k)

let rows_desc = function All r -> r.desc | Range (p, _) -> p.pdesc

let iter_rows rows f =
  match rows with
  | All r -> List.iter f r.xrows
  | Range (p, k) ->
    for i = p.pstart.(k) to p.pstart.(k + 1) - 1 do
      f p.prows.(p.porder.(i))
    done

let key_hash vals pos =
  let h = ref 0 in
  for i = 0 to Array.length pos - 1 do
    h := (!h * 31) + Value.hash vals.(pos.(i))
  done;
  !h land max_int

let same_key pos a b =
  let i = ref 0 in
  while !i < Array.length pos && Value.equal a.(pos.(!i)) b.(pos.(!i)) do
    incr i
  done;
  !i = Array.length pos

let partition r ~cols =
  let pos =
    Array.of_list
      (List.map
         (fun c ->
           match Schema.find r.desc.schema c with
           | Some i -> i
           | None -> plan_error "partition: unknown column %s" c
           | exception Schema.Ambiguous c ->
             plan_error "partition: ambiguous column %s" c)
         cols)
  in
  let rows = Array.of_list r.xrows in
  let n = Array.length rows in
  (* open addressing over key ids, at most half full *)
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := !cap * 2
  done;
  let mask = !cap - 1 in
  let bucket = Array.make !cap (-1) in
  let first = Array.make n 0 and khash = Array.make n 0 in
  let kid = Array.make n 0 and count = Array.make n 0 in
  let nkeys = ref 0 in
  for i = 0 to n - 1 do
    Meter.tick_c c_partition_row;
    let vals = rows.(i).vals in
    let h = key_hash vals pos in
    let b = ref (h land mask) in
    while
      bucket.(!b) >= 0
      && not
           (khash.(bucket.(!b)) = h
           && same_key pos rows.(first.(bucket.(!b))).vals vals)
    do
      b := (!b + 1) land mask
    done;
    let k =
      if bucket.(!b) >= 0 then bucket.(!b)
      else begin
        let k = !nkeys in
        incr nkeys;
        bucket.(!b) <- k;
        first.(k) <- i;
        khash.(k) <- h;
        k
      end
    in
    kid.(i) <- k;
    count.(k) <- count.(k) + 1
  done;
  let pstart = Array.make (!nkeys + 1) 0 in
  for k = 0 to !nkeys - 1 do
    pstart.(k + 1) <- pstart.(k) + count.(k)
  done;
  (* a counting sort: [count] becomes each key's fill cursor *)
  Array.blit pstart 0 count 0 !nkeys;
  let porder = Array.make n 0 in
  for i = 0 to n - 1 do
    let k = kid.(i) in
    porder.(count.(k)) <- i;
    count.(k) <- count.(k) + 1
  done;
  { pdesc = r.desc; prows = rows; porder; pstart; ppos = pos }

let n_keys p = Array.length p.pstart - 1

let key_value p k i = p.prows.(p.porder.(p.pstart.(k))).vals.(p.ppos.(i))

(* ------------------------------------------------------------------ *)
(* Binding results as temporary tables (§6.1).                          *)

(* Keep only pointer slots actually referenced by a non-overridden output
   column (the §6.1 optimization; STRIP v2.0's footnote says it stored all
   slots — we implement the described design).  An overridden column is a
   materialized cell reading constant [k], [k] the position of its name in
   [names]. *)
let compute_layout desc names =
  let schema = Schema.unqualify desc.schema in
  let override_index col =
    let name = (Schema.col schema col).Schema.cname in
    let rec find k = function
      | [] -> -1
      | n :: rest -> if String.equal n name then k else find (k + 1) rest
    in
    find 0 names
  in
  let used = Array.make desc.nslots false in
  Array.iteri
    (fun col prov ->
      match prov with
      | Slot (s, _) when override_index col < 0 -> used.(s) <- true
      | _ -> ())
    desc.colprov;
  let slot_map = Array.make desc.nslots (-1) in
  let slot_of = ref [] in
  Array.iteri
    (fun s u ->
      if u then begin
        slot_map.(s) <- List.length !slot_of;
        slot_of := s :: !slot_of
      end)
    used;
  let cell_of = ref [] in
  let prov =
    Array.init (Schema.arity schema) (fun col ->
        let k = override_index col in
        match desc.colprov.(col) with
        | Slot (s, o) when k < 0 -> Temp_table.From_record (slot_map.(s), o)
        | _ ->
          let m = List.length !cell_of in
          cell_of := (if k < 0 then col else -1 - k) :: !cell_of;
          Temp_table.Computed m)
  in
  Temp_table.layout ~schema ~prov
    ~slot_of:(Array.of_list (List.rev !slot_of))
    ~cell_of:(Array.of_list (List.rev !cell_of))

(* One layout per descriptor and list of overridden names: every table
   bound from a compiled plan shares its schema and static map, so a merge
   into a queued TCB recognizes the layout by physical equality. *)
let layout_for desc overrides =
  let rec same names ovs =
    match (names, ovs) with
    | [], [] -> true
    | n :: names, (o, _) :: ovs -> String.equal n o && same names ovs
    | _ -> false
  in
  match List.find_opt (fun (names, _) -> same names overrides) desc.layouts with
  | Some (_, l) -> l
  | None ->
    let names = List.map fst overrides in
    let l = compute_layout desc names in
    desc.layouts <- (names, l) :: desc.layouts;
    l

let consts_of = function
  | [] -> [||]
  | overrides -> Array.of_list (List.map snd overrides)

let append_rows ?(overrides = []) rows dst =
  let l = layout_for (rows_desc rows) overrides in
  let consts = consts_of overrides in
  iter_rows rows (fun x ->
      Temp_table.append_from dst l ~srcs:x.srcs ~vals:x.vals ~consts)

let bind ?(overrides = []) ~name rows =
  let l = layout_for (rows_desc rows) overrides in
  let tmp = Temp_table.of_layout ~name ~rows:(rows_length rows) l in
  let consts = consts_of overrides in
  iter_rows rows (fun x ->
      Temp_table.append_from tmp l ~srcs:x.srcs ~vals:x.vals ~consts);
  tmp

let row_images ?(overrides = []) rows =
  let l = layout_for (rows_desc rows) overrides in
  let consts = consts_of overrides in
  let acc = ref [] in
  iter_rows rows (fun x ->
      acc := Temp_table.layout_row l ~srcs:x.srcs ~vals:x.vals ~consts :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)

(* When a catalog is supplied, annotate each join with the access path the
   executor would choose right now (same selection function). *)
let strategy_note cat ~env l r pred =
  match
    let ldesc = desc_of cat ~env l in
    let rdesc = desc_of cat ~env r in
    let desc = join_desc ldesc rdesc in
    let la = Schema.arity ldesc.schema in
    let equi =
      match pred with
      | None -> []
      | Some p -> fst (split_equi ~left_arity:la (Expr.resolve desc.schema p))
    in
    let std = function
      | Scan { rel; _ } -> (
        match Catalog.resolve cat ~env rel with
        | Some (Catalog.Std tb) -> Some tb
        | _ -> None)
      | _ -> None
    in
    pick_strategy ~ltb:(std l) ~rtb:(std r) equi
  with
  | PMerge ((_, lidx), (_, ridx)) ->
    Printf.sprintf " [merge join via %s, %s]" (Index.name lidx) (Index.name ridx)
  | PIndex (_, idx) -> Printf.sprintf " [index join via %s]" (Index.name idx)
  | PHash -> " [hash join]"
  | PNested -> " [nested loop]"
  | exception _ -> ""

let rec explain_at ?cat ?(env = []) depth plan =
  let pad = String.make (depth * 2) ' ' in
  let line = Printf.sprintf in
  match plan with
  | Scan { rel; alias } ->
    line "%sscan %s%s" pad rel
      (match alias with Some a when a <> rel -> " as " ^ a | _ -> "")
  | Filter (p, q) ->
    line "%sfilter %s\n%s" pad
      (Format.asprintf "%a" Expr.pp p)
      (explain_at ?cat ~env (depth + 1) q)
  | Join (l, r, p) ->
    line "%sjoin%s%s\n%s\n%s" pad
      (match p with
      | Some p -> " on " ^ Format.asprintf "%a" Expr.pp p
      | None -> " (cross)")
      (match cat with
      | Some cat -> strategy_note cat ~env l r p
      | None -> "")
      (explain_at ?cat ~env (depth + 1) l)
      (explain_at ?cat ~env (depth + 1) r)
  | Project (items, q) ->
    line "%sproject %s\n%s" pad
      (String.concat ", "
         (List.mapi
            (fun i it ->
              Format.asprintf "%a as %s" Expr.pp it.expr (item_name i it))
            items))
      (explain_at ?cat ~env (depth + 1) q)
  | Group { keys; aggs; input; _ } ->
    line "%sgroup by %s aggs %s\n%s" pad
      (String.concat ", "
         (List.mapi
            (fun i it -> item_name i it)
            keys))
      (String.concat ", " (List.map snd aggs))
      (explain_at ?cat ~env (depth + 1) input)
  | Order (specs, q) ->
    line "%sorder by %d key(s)\n%s" pad (List.length specs)
      (explain_at ?cat ~env (depth + 1) q)
  | Limit (n, q) -> line "%slimit %d\n%s" pad n (explain_at ?cat ~env (depth + 1) q)
  | Distinct q -> line "%sdistinct\n%s" pad (explain_at ?cat ~env (depth + 1) q)

let explain ?cat ?env plan = explain_at ?cat ?env 0 plan
