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
(* Flat row buffers and an open-addressing key table: the only storage
   the executor allocates, each owned by the node that fills it and, in a
   prepared plan, reused from one execution to the next (so kept at the
   size of the largest). *)

(* Rows of one shape, back to back: row [i]'s values are
   [bvals.(i * width) ..] and its record pointers [bsrcs.(i * nsl) ..]. *)
type buf = {
  mutable width : int;
  mutable nsl : int;
  mutable bvals : Value.t array;
  mutable bsrcs : Record.t array;
  mutable len : int;
  mutable cap : int;
}

let buf_create () =
  { width = 0; nsl = 0; bvals = [||]; bsrcs = [||]; len = 0; cap = 0 }

(* Empty [b] for rows of [width] values and [nsl] pointers. *)
let buf_reset b ~width ~nsl =
  if b.width <> width || b.nsl <> nsl then begin
    b.width <- width;
    b.nsl <- nsl;
    b.bvals <- [||];
    b.bsrcs <- [||];
    b.cap <- 0
  end;
  b.len <- 0

let buf_grow b =
  let cap = max 4 (2 * b.cap) in
  if b.width > 0 then begin
    let v = Array.make (cap * b.width) Value.Null in
    Array.blit b.bvals 0 v 0 (b.len * b.width);
    b.bvals <- v
  end;
  if b.nsl > 0 then begin
    let s = Array.make (cap * b.nsl) Record.dummy in
    Array.blit b.bsrcs 0 s 0 (b.len * b.nsl);
    b.bsrcs <- s
  end;
  b.cap <- cap

let buf_add b vals srcs =
  if b.len = b.cap then buf_grow b;
  let o = b.len * b.width in
  for i = 0 to b.width - 1 do
    b.bvals.(o + i) <- vals.(i)
  done;
  let o = b.len * b.nsl in
  for i = 0 to b.nsl - 1 do
    b.bsrcs.(o + i) <- srcs.(i)
  done;
  b.len <- b.len + 1

(* The distinct keys of some rows, numbered densely in first-insertion
   order.  Open addressing over key ids, at most half full.  Key [k]'s
   values are not copied: they sit in a store the caller holds, from
   offset [kat.(k)], at the positions the caller passes with it. *)
type ktab = {
  mutable slots : int array;  (* a key id, or -1 *)
  mutable khash : int array;
  mutable kat : int array;
  mutable nkeys : int;
}

let kt_create () = { slots = [||]; khash = [||]; kat = [||]; nkeys = 0 }

(* Empty [t], with room for [n] keys before it rehashes. *)
let kt_reset t n =
  let cap = ref 8 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let len = Array.length t.slots in
  if len < !cap || len > 4 * !cap then t.slots <- Array.make !cap (-1)
  else Array.fill t.slots 0 len (-1);
  if Array.length t.khash < n then begin
    t.khash <- Array.make n 0;
    t.kat <- Array.make n 0
  end;
  t.nkeys <- 0

let hash_at vals at pos =
  let h = ref 0 in
  for j = 0 to Array.length pos - 1 do
    h := (!h * 31) + Value.hash vals.(at + pos.(j))
  done;
  !h land max_int

let rec same_at a aat apos b bat bpos j =
  j >= Array.length apos
  || Value.equal a.(aat + apos.(j)) b.(bat + bpos.(j))
     && same_at a aat apos b bat bpos (j + 1)

(* The slot of the key whose values ([store] at [spos]) equal [probe]'s
   values at [pat + ppos.(j)], or the empty slot where that key belongs. *)
let kt_slot t h store spos probe pat ppos =
  let mask = Array.length t.slots - 1 in
  let b = ref (h land mask) in
  while
    let k = t.slots.(!b) in
    k >= 0 && not (t.khash.(k) = h && same_at store t.kat.(k) spos probe pat ppos 0)
  do
    b := (!b + 1) land mask
  done;
  !b

(* Give empty slot [b] the next key id: hash [h], values from [at]. *)
let kt_add t b h at =
  let k = t.nkeys in
  if k = Array.length t.khash then begin
    let grow a =
      let a' = Array.make (max 8 (2 * k)) 0 in
      Array.blit a 0 a' 0 k;
      a'
    in
    t.khash <- grow t.khash;
    t.kat <- grow t.kat
  end;
  t.slots.(b) <- k;
  t.khash.(k) <- h;
  t.kat.(k) <- at;
  t.nkeys <- k + 1;
  if 2 * t.nkeys > Array.length t.slots then begin
    let cap = 2 * Array.length t.slots in
    let slots = Array.make cap (-1) in
    for k = 0 to t.nkeys - 1 do
      let b = ref (t.khash.(k) land (cap - 1)) in
      while slots.(!b) >= 0 do
        b := (!b + 1) land (cap - 1)
      done;
      slots.(!b) <- k
    done;
    t.slots <- slots
  end;
  k

(* The values at [pos] as an index key, in [pos] order. *)
let rec key_list vals pos j =
  if j >= Array.length pos then [] else vals.(pos.(j)) :: key_list vals pos (j + 1)

let iota n = Array.init n Fun.id

(* ------------------------------------------------------------------ *)
(* Compiled plans.

   A plan compiles into a mirror tree of operator nodes carrying per-node
   memos: the computed descriptor, the predicates and select items
   resolved against it, the chosen join strategy and the scratch rows
   sized to them.  [run] compiles a one-shot plan (an SQL statement) and
   drops it; [prepare] keeps the tree for a caller that re-runs one plan
   (the rule system's conditions).  A memo is validated by physical
   identity on every execution — a scan is still valid when the resolved
   relation carries the same schema and static map as before (so
   transition tables, whose layouts are shared per base table, revalidate
   in O(1)), and a join is still valid while its input descriptors are
   the memoized ones and no index has been added to or dropped from the
   scanned tables ({!Table.index_gen}).  On any mismatch the node silently
   recompiles, which makes catalog rebuilds (crash recovery, failover)
   transparent.  Only resolution work is cached; every execution re-runs
   the physical operators, so meter ticks are unchanged. *)

type scan_memo = {
  sm_std : Table.t option;  (* [Some tb] iff the relation is standard *)
  sm_schema : Schema.t;  (* resolved relation's schema (identity key) *)
  sm_name : string;
  sm_prov : Temp_table.provenance array;  (* [||] for standard tables *)
  sm_desc : xdesc;
  sm_vals : Value.t array;  (* a temporary table's row, read into *)
  sm_srcs : Record.t array;
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
  jm_residual : Expr.t option;
  jm_strategy : jstrategy;
  jm_deps : (Table.t * int) list;  (* index generations the choice assumed *)
  jm_lpos : int array;  (* equi columns: left positions *)
  jm_rpos : int array;  (* and the matching right-input positions *)
  jm_la : int;  (* left arity and pointer slots *)
  jm_ls : int;
  jm_ra : int;
  jm_rs : int;
  jm_vals : Value.t array;  (* the joined row, written in place *)
  jm_srcs : Record.t array;
}

type agg_kind = [ `Count_star | `Count | `Sum | `Avg | `Min | `Max ]

type group_memo = {
  gm_in : xdesc;
  gm_desc : xdesc;
  gm_keys : Expr.t array;
  gm_aggs : (agg_kind * Expr.t) array;
  gm_having : Expr.t option;
  gm_kpos : int array;  (* [0 .. nkeys - 1] *)
  gm_key : Value.t array;  (* one input row's key *)
  gm_out : Value.t array;  (* one output row *)
}

type project_memo = {
  pm_in : xdesc;
  pm_desc : xdesc;
  pm_exprs : Expr.t array;
  pm_vals : Value.t array;
}

type order_memo = {
  om_in : xdesc;
  om_exprs : Expr.t array;
  om_dirs : order array;
  om_key : Value.t array;
  om_vals : Value.t array;
  om_srcs : Record.t array;
}

type cnode =
  | CScan of cscan
  | CFilter of cfilter
  | CJoin of cjoin
  | CProject of cproject
  | CGroup of cgroup
  | COrder of corder
  | CLimit of climit
  | CDistinct of cdistinct

(* Where a node pushes each row it produces. *)
and sink =
  | Out of buf  (* the root: the execution's result *)
  | Up of cnode  (* the parent; a join's left (probe) input *)
  | Build of cjoin  (* a hash or nested-loop join's right (build) input *)

and cscan = {
  rel : string;
  alias : string option;
  mutable sm : scan_memo option;
  mutable srel : Catalog.relation option;  (* resolved for this execution *)
  mutable sout : sink;
}

and cfilter = {
  fsub : cnode;
  fpred : Expr.t;
  mutable fm : (xdesc * Expr.t) option;
  mutable fout : sink;
}

and cjoin = {
  jl : cnode;
  jr : cnode;
  jpred : Expr.t option;
  mutable jm : join_memo option;
  jbuild : buf;  (* the right input's rows *)
  jtab : ktab;  (* their distinct equi keys *)
  mutable jhead : int array;  (* per key: its first build row *)
  mutable jnext : int array;  (* per build row: the next with its key, or -1 *)
  mutable jout : sink;
}

and cproject = {
  psub : cnode;
  pitems : select_item list;
  mutable pm : project_memo option;
  mutable pout : sink;
}

and cgroup = {
  gsub : cnode;
  gkeys : select_item list;
  gaggs : (agg * string) list;
  ghaving : Expr.t option;
  mutable gm : group_memo option;
  gtab : ktab;
  gstore : buf;  (* each group's key, in group order *)
  (* accumulators, group [k]'s aggregate [a] at [k * naggs + a]: a count,
     a float sum (AVG) and a running value (SUM, MIN, MAX) *)
  mutable gn : int array;
  mutable gf : float array;
  mutable gv : Value.t array;
  mutable gout : sink;
}

and corder = {
  osub : cnode;
  ospecs : (Expr.t * order) list;
  mutable om : order_memo option;
  obuf : buf;  (* the input rows *)
  okeys : buf;  (* and their sort keys *)
  mutable oout : sink;
}

and climit = {
  lsub : cnode;
  lim : int;
  mutable taken : int;
  mutable lout : sink;
}

and cdistinct = {
  dsub : cnode;
  mutable dpos : int array;  (* [0 .. arity - 1] *)
  dtab : ktab;
  dkept : buf;  (* the values of each distinct row *)
  mutable dout : sink;
}

(* Never pushed into: every node's sink is set when its parent is built. *)
let nowhere = Out (buf_create ())

let set_sink node sink =
  match node with
  | CScan s -> s.sout <- sink
  | CFilter f -> f.fout <- sink
  | CJoin j -> j.jout <- sink
  | CProject p -> p.pout <- sink
  | CGroup g -> g.gout <- sink
  | COrder o -> o.oout <- sink
  | CLimit l -> l.lout <- sink
  | CDistinct d -> d.dout <- sink

let rec compile_node plan =
  let node =
    match plan with
    | Scan { rel; alias } -> CScan { rel; alias; sm = None; srel = None; sout = nowhere }
    | Filter (pred, p) -> CFilter { fsub = compile_node p; fpred = pred; fm = None; fout = nowhere }
    | Join (l, r, pred) ->
      CJoin
        {
          jl = compile_node l;
          jr = compile_node r;
          jpred = pred;
          jm = None;
          jbuild = buf_create ();
          jtab = kt_create ();
          jhead = [||];
          jnext = [||];
          jout = nowhere;
        }
    | Project (items, p) ->
      CProject { psub = compile_node p; pitems = items; pm = None; pout = nowhere }
    | Group { keys; aggs; having; input } ->
      CGroup
        {
          gsub = compile_node input;
          gkeys = keys;
          gaggs = aggs;
          ghaving = having;
          gm = None;
          gtab = kt_create ();
          gstore = buf_create ();
          gn = [||];
          gf = [||];
          gv = [||];
          gout = nowhere;
        }
    | Order (specs, p) ->
      COrder
        {
          osub = compile_node p;
          ospecs = specs;
          om = None;
          obuf = buf_create ();
          okeys = buf_create ();
          oout = nowhere;
        }
    | Limit (n, p) -> CLimit { lsub = compile_node p; lim = n; taken = 0; lout = nowhere }
    | Distinct p ->
      CDistinct
        { dsub = compile_node p; dpos = [||]; dtab = kt_create (); dkept = buf_create (); dout = nowhere }
  in
  (match node with
  | CScan _ -> ()
  | CFilter { fsub = sub; _ }
  | CProject { psub = sub; _ }
  | CGroup { gsub = sub; _ }
  | COrder { osub = sub; _ }
  | CLimit { lsub = sub; _ }
  | CDistinct { dsub = sub; _ } ->
    set_sink sub (Up node)
  | CJoin j ->
    set_sink j.jl (Up node);
    set_sink j.jr (Build j));
  node

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
  | Some relation as found -> (
    s.srel <- found;
    match s.sm with
    | Some m when scan_valid m relation -> m.sm_desc
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
            sm_vals = Array.make (Schema.arity desc.schema) Value.Null;
            sm_srcs = Array.make desc.nslots Record.dummy;
          };
      desc)

let scan_std cat ~env = function
  | CScan s -> (
    match Catalog.resolve cat ~env s.rel with
    | Some (Catalog.Std tb) -> Some tb
    | _ -> None)
  | _ -> None

(* [censure] validates the memo chain and returns the node's descriptor
   without executing anything (and without ticking any meter). *)
let rec censure cat ~env = function
  | CScan s -> ensure_scan cat ~env s
  | CFilter f -> ensure_filter cat ~env f
  | CJoin j -> (ensure_join cat ~env j).jm_desc
  | CProject p -> (ensure_project cat ~env p).pm_desc
  | CGroup g -> (ensure_group cat ~env g).gm_desc
  | COrder o -> ensure_order cat ~env o
  | CLimit l -> censure cat ~env l.lsub
  | CDistinct d ->
    let ind = censure cat ~env d.dsub in
    let arity = Schema.arity ind.schema in
    if Array.length d.dpos <> arity then d.dpos <- iota arity;
    ind

and ensure_filter cat ~env (f : cfilter) =
  let ind = censure cat ~env f.fsub in
  (match f.fm with
  | Some (ind', _) when ind' == ind -> ()
  | _ -> f.fm <- Some (ind, resolve_in ind.schema f.fpred));
  ind

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
        jm_residual = residual_pred;
        jm_strategy = strategy;
        jm_deps = deps;
        jm_lpos = Array.of_list (List.map fst equi);
        jm_rpos = Array.of_list (List.map snd equi);
        jm_la = la;
        jm_ls = ldesc.nslots;
        jm_ra = Schema.arity rdesc.schema;
        jm_rs = rdesc.nslots;
        jm_vals = Array.make (Schema.arity desc.schema) Value.Null;
        jm_srcs = Array.make desc.nslots Record.dummy;
      }
    in
    j.jm <- Some m;
    m

and ensure_project cat ~env (p : cproject) =
  let ind = censure cat ~env p.psub in
  match p.pm with
  | Some m when m.pm_in == ind -> m
  | _ ->
    let desc = project_desc ind p.pitems in
    let m =
      {
        pm_in = ind;
        pm_desc = desc;
        pm_exprs =
          Array.of_list (List.map (fun it -> resolve_in ind.schema it.expr) p.pitems);
        pm_vals = Array.make (Schema.arity desc.schema) Value.Null;
      }
    in
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
    let nkeys = List.length key_exprs in
    let m =
      {
        gm_in = ind;
        gm_desc = desc;
        gm_keys = Array.of_list key_exprs;
        gm_aggs = Array.of_list agg_specs;
        gm_having = having;
        gm_kpos = iota nkeys;
        gm_key = Array.make nkeys Value.Null;
        gm_out = Array.make (Schema.arity desc.schema) Value.Null;
      }
    in
    g.gm <- Some m;
    m

and ensure_order cat ~env (o : corder) =
  let ind = censure cat ~env o.osub in
  (match o.om with
  | Some m when m.om_in == ind -> ()
  | _ ->
    let specs = Array.of_list o.ospecs in
    o.om <-
      Some
        {
          om_in = ind;
          om_exprs = Array.map (fun (e, _) -> resolve_in ind.schema e) specs;
          om_dirs = Array.map snd specs;
          om_key = Array.make (Array.length specs) Value.Null;
          om_vals = Array.make (Schema.arity ind.schema) Value.Null;
          om_srcs = Array.make ind.nslots Record.dummy;
        });
  ind

(* ------------------------------------------------------------------ *)
(* Execution: push-based.  [drive] makes a node produce its rows; each
   row goes to the node's sink as (values, record pointers) in arrays the
   producer owns and overwrites with its next row, so a consumer that
   keeps a row copies it.  Filter and Project forward rows as they come,
   and a join writes each joined row into its own scratch; only ORDER
   BY, GROUP BY, DISTINCT and a join's build side hold rows, in the
   node's reusable buffers.  Every operator ticks exactly what the
   modeled operator does, in result order: the meter counts are the cost
   model, not this implementation. *)

(* Testing knob: when [false], the indexed-probe physical path is replaced
   by a hash-build fallback that reproduces the modeled path bit for bit —
   same "index_probe"/"join_row" ticks, same output order (an index posting
   list holds records newest-first, i.e. by descending rid).  Strategy
   *selection* is unaffected, so simulated results must not change; the
   differential tests assert exactly that. *)
let physical_index_join = ref true

let rec emit sink vals srcs =
  match sink with
  | Out b -> buf_add b vals srcs
  | Build j ->
    (match j.jm with
    | Some { jm_strategy = JHash; _ } -> Meter.tick_c c_hash_build
    | _ -> ());
    buf_add j.jbuild vals srcs
  | Up (CFilter f) -> (
    match f.fm with
    | Some (_, pred) -> if Expr.eval_pred pred vals then emit f.fout vals srcs
    | None -> assert false)
  | Up (CProject p) -> (
    match p.pm with
    | Some m ->
      Meter.tick_c c_row_construct;
      for i = 0 to Array.length m.pm_exprs - 1 do
        m.pm_vals.(i) <- Expr.eval m.pm_exprs.(i) vals
      done;
      emit p.pout m.pm_vals srcs
    | None -> assert false)
  | Up (CJoin j) -> probe j vals srcs
  | Up (CGroup g) -> group_row g vals
  | Up (COrder o) -> order_row o vals srcs
  | Up (CLimit l) ->
    if l.taken < l.lim then begin
      l.taken <- l.taken + 1;
      emit l.lout vals srcs
    end
  | Up (CDistinct d) ->
    Meter.tick_c c_hash_probe;
    let h = hash_at vals 0 d.dpos in
    let b = kt_slot d.dtab h d.dkept.bvals d.dpos vals 0 d.dpos in
    if d.dtab.slots.(b) < 0 then begin
      ignore (kt_add d.dtab b h (d.dkept.len * d.dkept.width));
      buf_add d.dkept vals srcs;
      emit d.dout vals srcs
    end
  | Up (CScan _) -> assert false

(* One left row: write it into the joined row, then join it with its
   matches in the strategy's order. *)
and probe j lvals lsrcs =
  match j.jm with
  | None -> assert false
  | Some m -> (
    Array.blit lvals 0 m.jm_vals 0 m.jm_la;
    Array.blit lsrcs 0 m.jm_srcs 0 m.jm_ls;
    match m.jm_strategy with
    | JIndex (_, idx) when !physical_index_join ->
      with_records j m (Index.lookup idx (key_list lvals m.jm_lpos 0))
    | JIndex _ ->
      Meter.tick_c c_index_probe;
      let k = build_key j m lvals in
      if k >= 0 then begin
        let rec rows i acc = if i < 0 then acc else rows j.jnext.(i) (i :: acc) in
        let rid i = j.jbuild.bsrcs.(i).Record.rid in
        List.iter (with_build_row j m)
          (List.sort (fun a b -> compare (rid b) (rid a)) (rows j.jhead.(k) []))
      end
    | JHash ->
      Meter.tick_c c_hash_probe;
      let k = build_key j m lvals in
      if k >= 0 then with_chain j m j.jhead.(k)
    | JNested ->
      for i = 0 to j.jbuild.len - 1 do
        with_build_row j m i
      done
    | JMerge _ -> assert false)

(* The key id of the build rows matching [lvals], or -1. *)
and build_key j m lvals =
  j.jtab.slots.(kt_slot j.jtab (hash_at lvals 0 m.jm_lpos) j.jbuild.bvals m.jm_rpos
                  lvals 0 m.jm_lpos)

and joined j m =
  Meter.tick_c c_join_row;
  match m.jm_residual with
  | Some p when not (Expr.eval_pred p m.jm_vals) -> ()
  | _ -> emit j.jout m.jm_vals m.jm_srcs

(* Join the current left row with standard records (the right input is
   a scan: one slot, the record's values). *)
and with_records j m = function
  | [] -> ()
  | (r : Record.t) :: rest ->
    Array.blit r.values 0 m.jm_vals m.jm_la m.jm_ra;
    m.jm_srcs.(m.jm_ls) <- r;
    joined j m;
    with_records j m rest

and with_build_row j m i =
  let b = j.jbuild in
  Array.blit b.bvals (i * m.jm_ra) m.jm_vals m.jm_la m.jm_ra;
  Array.blit b.bsrcs (i * m.jm_rs) m.jm_srcs m.jm_ls m.jm_rs;
  joined j m

and with_chain j m i =
  if i >= 0 then begin
    with_build_row j m i;
    with_chain j m j.jnext.(i)
  end

and group_row g vals =
  match g.gm with
  | None -> assert false
  | Some m ->
    Meter.tick_c c_agg_row;
    let key = m.gm_key in
    for i = 0 to Array.length m.gm_keys - 1 do
      key.(i) <- Expr.eval m.gm_keys.(i) vals
    done;
    let h = hash_at key 0 m.gm_kpos in
    let b = kt_slot g.gtab h g.gstore.bvals m.gm_kpos key 0 m.gm_kpos in
    let k =
      let k = g.gtab.slots.(b) in
      if k >= 0 then k
      else begin
        Meter.tick_c c_group_init;
        new_group g m b h
      end
    in
    let na = Array.length m.gm_aggs in
    for a = 0 to na - 1 do
      let i = (k * na) + a in
      let kind, e = m.gm_aggs.(a) in
      match kind with
      | `Count_star -> g.gn.(i) <- g.gn.(i) + 1
      | `Count ->
        if not (Value.is_null (Expr.eval e vals)) then g.gn.(i) <- g.gn.(i) + 1
      | `Sum ->
        let v = Expr.eval e vals in
        if not (Value.is_null v) then begin
          g.gn.(i) <- g.gn.(i) + 1;
          g.gv.(i) <- (if Value.is_null g.gv.(i) then v else Value.add g.gv.(i) v)
        end
      | `Avg ->
        let v = Expr.eval e vals in
        if not (Value.is_null v) then begin
          g.gn.(i) <- g.gn.(i) + 1;
          g.gf.(i) <- g.gf.(i) +. Value.to_float v
        end
      | `Min ->
        let v = Expr.eval e vals in
        if
          (not (Value.is_null v))
          && (Value.is_null g.gv.(i) || Value.compare v g.gv.(i) < 0)
        then g.gv.(i) <- v
      | `Max ->
        let v = Expr.eval e vals in
        if
          (not (Value.is_null v))
          && (Value.is_null g.gv.(i) || Value.compare v g.gv.(i) > 0)
        then g.gv.(i) <- v
    done

(* A new group in empty slot [b], keyed by [m.gm_key], with fresh
   accumulators. *)
and new_group g m b h =
  let k = kt_add g.gtab b h (g.gstore.len * g.gstore.width) in
  buf_add g.gstore m.gm_key [||];
  let na = Array.length m.gm_aggs in
  if (k + 1) * na > Array.length g.gn then begin
    let n = max 8 (2 * (k + 1) * na) in
    let grow a fill =
      let a' = Array.make n fill in
      Array.blit a 0 a' 0 (k * na);
      a'
    in
    g.gn <- grow g.gn 0;
    g.gv <- grow g.gv Value.Null;
    let gf = Array.make n 0.0 in
    Array.blit g.gf 0 gf 0 (k * na);
    g.gf <- gf
  end;
  for i = k * na to ((k + 1) * na) - 1 do
    g.gn.(i) <- 0;
    g.gf.(i) <- 0.0;
    g.gv.(i) <- Value.Null
  done;
  k

and order_row o vals srcs =
  match o.om with
  | None -> assert false
  | Some m ->
    Meter.tick_c c_sort_row;
    for i = 0 to Array.length m.om_exprs - 1 do
      m.om_key.(i) <- Expr.eval m.om_exprs.(i) vals
    done;
    buf_add o.okeys m.om_key [||];
    buf_add o.obuf vals srcs

let rec drive node =
  match node with
  | CScan s -> (
    match (s.srel, s.sm) with
    | Some (Catalog.Std tb), Some m ->
      let srcs = m.sm_srcs and out = s.sout in
      Table.iter tb (fun r ->
          Meter.tick_c c_seq_row;
          srcs.(0) <- r;
          emit out r.Record.values srcs)
    | Some (Catalog.Tmp tmp), Some m ->
      let vals = m.sm_vals and srcs = m.sm_srcs and out = s.sout in
      Temp_table.iter tmp (fun row ->
          Meter.tick_c c_seq_row;
          Temp_table.read_row tmp row ~vals ~srcs;
          emit out vals srcs)
    | _ -> assert false)
  | CFilter f -> drive f.fsub
  | CProject p -> drive p.psub
  | CJoin j -> drive_join j
  | CGroup g -> (
    match g.gm with
    | None -> assert false
    | Some m ->
      buf_reset g.gstore ~width:(Array.length m.gm_keys) ~nsl:0;
      kt_reset g.gtab 4;
      drive g.gsub;
      (* a grand aggregate (no keys) over an empty input still yields one row *)
      if Array.length m.gm_keys = 0 && g.gtab.nkeys = 0 then
        ignore (new_group g m (kt_slot g.gtab 0 [||] [||] [||] 0 [||]) 0);
      flush_groups g m)
  | COrder o -> (
    match o.om with
    | None -> assert false
    | Some m ->
      buf_reset o.obuf ~width:(Array.length m.om_vals) ~nsl:(Array.length m.om_srcs);
      buf_reset o.okeys ~width:(Array.length m.om_exprs) ~nsl:0;
      drive o.osub;
      flush_sorted o m)
  | CLimit l ->
    l.taken <- 0;
    drive l.lsub
  | CDistinct d ->
    buf_reset d.dkept ~width:(Array.length d.dpos) ~nsl:0;
    kt_reset d.dtab 4;
    drive d.dsub

and drive_join j =
  match j.jm with
  | None -> assert false
  | Some m -> (
    match m.jm_strategy with
    | JIndex _ when !physical_index_join -> drive j.jl
    | JIndex (tb, _) ->
      (* unmetered build over the whole table, then per-left-row probes
         that replay the modeled index path's ticks and posting order *)
      buf_reset j.jbuild ~width:m.jm_ra ~nsl:1;
      let srcs = [| Record.dummy |] in
      Table.iter tb (fun r ->
          srcs.(0) <- r;
          buf_add j.jbuild r.Record.values srcs);
      index_build j m;
      drive j.jl
    | JHash ->
      buf_reset j.jbuild ~width:m.jm_ra ~nsl:m.jm_rs;
      drive j.jr;
      index_build j m;
      drive j.jl
    | JNested ->
      buf_reset j.jbuild ~width:m.jm_ra ~nsl:m.jm_rs;
      drive j.jr;
      drive j.jl
    | JMerge ((_, lidx), (_, ridx)) ->
      (* Neither input is scanned: stream both ordered indexes in key
         order and intersect, one "merge_step" per pointer advance.
         Output is in ascending key order; within a key, left then right
         postings oldest-first (ascending rid). *)
      merge j m (Index.ordered_entries lidx) (Index.ordered_entries ridx))

(* Chain the build rows by equi key, each chain in build order (built
   back to front, so each row is prepended).  The key table is sized to
   the build side. *)
and index_build j m =
  let b = j.jbuild in
  let n = b.len in
  kt_reset j.jtab n;
  if Array.length j.jnext < n then begin
    j.jnext <- Array.make n (-1);
    j.jhead <- Array.make n (-1)
  end;
  for i = n - 1 downto 0 do
    let at = i * m.jm_ra in
    let h = hash_at b.bvals at m.jm_rpos in
    let s = kt_slot j.jtab h b.bvals m.jm_rpos b.bvals at m.jm_rpos in
    let k = j.jtab.slots.(s) in
    if k < 0 then begin
      j.jhead.(kt_add j.jtab s h at) <- i;
      j.jnext.(i) <- -1
    end
    else begin
      j.jnext.(i) <- j.jhead.(k);
      j.jhead.(k) <- i
    end
  done

and merge j m ls rs =
  match (ls, rs) with
  | [], _ | _, [] -> ()
  | (lk, lrecs) :: ls', (rk, rrecs) :: rs' ->
    Meter.tick_c c_merge_step;
    let c = Index.compare_keys lk rk in
    if c < 0 then merge j m ls' rs
    else if c > 0 then merge j m ls rs'
    else begin
      merge_key j m lrecs rrecs;
      merge j m ls' rs'
    end

and merge_key j m lrecs rrecs =
  match lrecs with
  | [] -> ()
  | (lr : Record.t) :: rest ->
    Array.blit lr.values 0 m.jm_vals 0 m.jm_la;
    m.jm_srcs.(0) <- lr;
    with_records j m rrecs;
    merge_key j m rest rrecs

and flush_groups g m =
  let nk = Array.length m.gm_keys and na = Array.length m.gm_aggs in
  let out = m.gm_out in
  for k = 0 to g.gtab.nkeys - 1 do
    Array.blit g.gstore.bvals (k * nk) out 0 nk;
    for a = 0 to na - 1 do
      let i = (k * na) + a in
      out.(nk + a) <-
        (match fst m.gm_aggs.(a) with
        | `Count_star | `Count -> Value.Int g.gn.(i)
        | `Sum | `Min | `Max -> g.gv.(i)
        | `Avg ->
          if g.gn.(i) = 0 then Value.Null
          else Value.Float (g.gf.(i) /. float_of_int g.gn.(i)))
    done;
    Meter.tick_c c_row_construct;
    match m.gm_having with
    | Some h when not (Expr.eval_pred h out) -> ()
    | _ -> emit g.gout out [||]
  done

and flush_sorted o m =
  let keys = o.okeys.bvals and nspec = Array.length m.om_exprs in
  let compare_rows a b =
    let rec loop j =
      if j >= nspec then 0
      else
        let c = Value.compare keys.((a * nspec) + j) keys.((b * nspec) + j) in
        let c = match m.om_dirs.(j) with Asc -> c | Desc -> -c in
        if c <> 0 then c else loop (j + 1)
    in
    loop 0
  in
  let ids = iota o.obuf.len in
  Array.stable_sort compare_rows ids;
  let b = o.obuf in
  Array.iter
    (fun i ->
      Array.blit b.bvals (i * b.width) m.om_vals 0 b.width;
      Array.blit b.bsrcs (i * b.nsl) m.om_srcs 0 b.nsl;
      emit o.oout m.om_vals m.om_srcs)
    ids

(* A result: [rlen] rows of [rwidth] values and [desc.nslots] record
   pointers each, back to back (see [buf]). *)
type result = {
  desc : xdesc;
  rvals : Value.t array;
  rsrcs : Record.t array;
  rlen : int;
  rwidth : int;
}

type prepared = {
  top : cnode;
  out : buf;  (* [top]'s rows, copied into the result at the end *)
}

let prepare plan =
  let top = compile_node plan in
  let out = buf_create () in
  set_sink top (Out out);
  { top; out }

let run_prepared cat ~env c =
  let desc = censure cat ~env c.top in
  let b = c.out in
  buf_reset b ~width:(Schema.arity desc.schema) ~nsl:desc.nslots;
  drive c.top;
  {
    desc;
    rvals = Array.sub b.bvals 0 (b.len * b.width);
    rsrcs = Array.sub b.bsrcs 0 (b.len * b.nsl);
    rlen = b.len;
    rwidth = b.width;
  }

let run cat ~env plan = run_prepared cat ~env (prepare plan)

let schema_of cat ~env plan = (desc_of cat ~env plan).schema

let result_schema r = r.desc.schema
let row_count r = r.rlen
let rows r = List.init r.rlen (fun i -> Array.sub r.rvals (i * r.rwidth) r.rwidth)

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

(* A result's rows grouped by key, as bound tables will hold them.  Key
   [k] owns [order.(start.(k))] up to [order.(start.(k + 1) - 1)] (row
   ids, result order within a key); keys are numbered in first-seen
   order.  An empty [order] with one key is every row in result order. *)
type rows = {
  res : result;
  layout : Temp_table.layout;
  consts : Value.t array;  (* the overridden columns' values *)
  order : int array;
  start : int array;  (* one entry per key, plus the end *)
  pos : int array;  (* partition column positions *)
}

let selection overrides r ~order ~start ~pos =
  {
    res = r;
    layout = layout_for r.desc overrides;
    consts = Array.of_list (List.map snd overrides);
    order;
    start;
    pos;
  }

let all_rows ?(overrides = []) r =
  selection overrides r ~order:[||] ~start:[| 0; r.rlen |] ~pos:[||]

let partition ?(overrides = []) r ~cols =
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
  let n = r.rlen and vals = r.rvals in
  let t = kt_create () in
  kt_reset t n;
  let kid = Array.make n 0 in
  for i = 0 to n - 1 do
    Meter.tick_c c_partition_row;
    let at = i * r.rwidth in
    let h = hash_at vals at pos in
    let b = kt_slot t h vals pos vals at pos in
    let k = t.slots.(b) in
    kid.(i) <- (if k >= 0 then k else kt_add t b h at)
  done;
  (* a counting sort of the row ids by key *)
  let start = Array.make (t.nkeys + 1) 0 in
  Array.iter (fun k -> start.(k + 1) <- start.(k + 1) + 1) kid;
  for k = 1 to t.nkeys do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let fill = Array.sub start 0 t.nkeys in
  let order = Array.make n 0 in
  Array.iteri
    (fun i k ->
      order.(fill.(k)) <- i;
      fill.(k) <- fill.(k) + 1)
    kid;
  selection overrides r ~order ~start ~pos

let n_keys s = Array.length s.start - 1
let key_length s k = s.start.(k + 1) - s.start.(k)
let row_id s i = if Array.length s.order = 0 then i else s.order.(i)

let key_value s k i =
  s.res.rvals.((row_id s s.start.(k) * s.res.rwidth) + s.pos.(i))

let append_rows s k dst =
  let r = s.res in
  for i = s.start.(k) to s.start.(k + 1) - 1 do
    let row = row_id s i in
    Temp_table.append_from dst s.layout ~srcs:r.rsrcs ~src_at:(row * r.desc.nslots)
      ~vals:r.rvals ~val_at:(row * r.rwidth) ~consts:s.consts
  done

let bind ~name s k =
  let tmp = Temp_table.of_layout ~name ~rows:(key_length s k) s.layout in
  append_rows s k tmp;
  tmp

let row_images s k =
  let r = s.res in
  List.init (key_length s k) (fun i ->
      let row = row_id s (s.start.(k) + i) in
      Temp_table.layout_row s.layout ~srcs:r.rsrcs ~src_at:(row * r.desc.nslots)
        ~vals:r.rvals ~val_at:(row * r.rwidth) ~consts:s.consts)

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
