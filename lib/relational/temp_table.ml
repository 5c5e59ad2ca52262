let c_bound_append = Meter.counter "bound_append"

type provenance =
  | From_record of int * int
  | Computed of int

type row = int

(* Columnar arena backing: tuple [i]'s source pointers live at
   [srcs.(i * nslots + s)] and its materialized cells at
   [mats.(i * nmats + m)].  Both arenas grow geometrically, so building a
   transition or bound table allocates no per-row list cells; a row handle
   is just the tuple's index. *)
type t = {
  tname : string;
  tschema : Schema.t;
  nslots : int;
  nmats : int;
  prov : provenance array;
  mutable srcs : Record.t array;  (* nrows * nslots slots in use *)
  mutable mats : Value.t array;  (* nrows * nmats cells in use *)
  mutable cap : int;  (* rows the arenas can hold *)
  mutable nrows : int;
  mutable is_retired : bool;
}

let initial_cap = 8

let validate fn ~schema ~nslots prov =
  if Array.length prov <> Schema.arity schema then
    invalid_arg (fn ^ ": static map arity mismatch");
  let nmats =
    Array.fold_left
      (fun acc p -> match p with Computed _ -> acc + 1 | From_record _ -> acc)
      0 prov
  in
  let seen = Array.make (max nmats 1) false in
  Array.iter
    (fun p ->
      match p with
      | Computed i ->
        if i < 0 || i >= nmats || seen.(i) then
          invalid_arg (fn ^ ": materialized cells not dense");
        seen.(i) <- true
      | From_record (s, _) ->
        if s < 0 || s >= nslots then
          invalid_arg (fn ^ ": pointer slot out of range"))
    prov;
  nmats

let make ~name ~schema ~nslots ~nmats ~prov ~cap =
  {
    tname = name;
    tschema = schema;
    nslots;
    nmats;
    prov;
    srcs = (if nslots = 0 then [||] else Array.make (cap * nslots) Record.dummy);
    mats = (if nmats = 0 then [||] else Array.make (cap * nmats) Value.Null);
    cap;
    nrows = 0;
    is_retired = false;
  }

let create ~name ~schema ~nslots ~prov =
  let nmats = validate "Temp_table.create" ~schema ~nslots prov in
  make ~name ~schema ~nslots ~nmats ~prov ~cap:initial_cap

let create_materialized ~name ~schema =
  let prov = Array.init (Schema.arity schema) (fun i -> Computed i) in
  create ~name ~schema ~nslots:0 ~prov

let name t = t.tname
let schema t = t.tschema
let cardinal t = t.nrows
let slots t = t.nslots
let static_map t = Array.copy t.prov

let reserve t extra =
  let need = t.nrows + extra in
  if need > t.cap then begin
    let cap = ref (max t.cap initial_cap) in
    while need > !cap do
      cap := !cap * 2
    done;
    if t.nslots > 0 then begin
      let srcs = Array.make (!cap * t.nslots) Record.dummy in
      Array.blit t.srcs 0 srcs 0 (t.nrows * t.nslots);
      t.srcs <- srcs
    end;
    if t.nmats > 0 then begin
      let mats = Array.make (!cap * t.nmats) Value.Null in
      Array.blit t.mats 0 mats 0 (t.nrows * t.nmats);
      t.mats <- mats
    end;
    t.cap <- !cap
  end

let append t ~srcs ~mats =
  if t.is_retired then invalid_arg "Temp_table.append: table is retired";
  if Array.length srcs <> t.nslots || Array.length mats <> t.nmats then
    invalid_arg "Temp_table.append: slot/materialized arity mismatch";
  Array.iter Record.pin srcs;
  Meter.tick_c c_bound_append;
  reserve t 1;
  if t.nslots > 0 then Array.blit srcs 0 t.srcs (t.nrows * t.nslots) t.nslots;
  if t.nmats > 0 then Array.blit mats 0 t.mats (t.nrows * t.nmats) t.nmats;
  t.nrows <- t.nrows + 1

let append_values t values =
  if t.nslots <> 0 then
    invalid_arg "Temp_table.append_values: table has pointer slots";
  if t.is_retired then invalid_arg "Temp_table.append: table is retired";
  if Array.length values <> Array.length t.prov then
    invalid_arg "Temp_table.append: slot/materialized arity mismatch";
  Meter.tick_c c_bound_append;
  reserve t 1;
  (* Write the values directly into the arena in materialized-cell order. *)
  let base = t.nrows * t.nmats in
  Array.iteri
    (fun col p ->
      match p with
      | Computed m -> t.mats.(base + m) <- values.(col)
      | From_record _ -> assert false)
    t.prov;
  t.nrows <- t.nrows + 1

(* A bind layout: where each column of one query-result shape lands in a
   bound table.  Bound slot [s] points at source-row slot [slot_of.(s)];
   materialized cell [m] copies source-row column [cell_of.(m)], or, when
   that is negative, constant [-1 - cell_of.(m)] (an override). *)
type layout = {
  lschema : Schema.t;
  lprov : provenance array;
  lnmats : int;
  slot_of : int array;
  cell_of : int array;
}

let layout ~schema ~prov ~slot_of ~cell_of =
  let nslots = Array.length slot_of in
  let nmats = validate "Temp_table.layout" ~schema ~nslots prov in
  if Array.length cell_of <> nmats then
    invalid_arg "Temp_table.layout: cell map arity mismatch";
  { lschema = schema; lprov = prov; lnmats = nmats; slot_of; cell_of }

let of_layout ~name ?(rows = 0) l =
  make ~name ~schema:l.lschema ~nslots:(Array.length l.slot_of)
    ~nmats:l.lnmats ~prov:l.lprov ~cap:rows

let cell l ~vals ~val_at ~consts m =
  let c = l.cell_of.(m) in
  if c >= 0 then vals.(val_at + c) else consts.(-1 - c)

(* Column [col] of the bound row made from one source row, as [get] would
   read it back. *)
let layout_value l ~srcs ~src_at ~vals ~val_at ~consts col =
  match l.lprov.(col) with
  | From_record (s, off) -> Record.value srcs.(src_at + l.slot_of.(s)) off
  | Computed m -> cell l ~vals ~val_at ~consts m

let layout_row l ~srcs ~src_at ~vals ~val_at ~consts =
  Array.init (Array.length l.lprov) (fun col ->
      layout_value l ~srcs ~src_at ~vals ~val_at ~consts col)

(* Physical equality first: tables bound from one cached layout share its
   schema and static map, so the common check is O(1). *)
let has_layout t l =
  (t.prov == l.lprov && t.tschema == l.lschema)
  || t.nslots = Array.length l.slot_of
     && Schema.equal_layout t.tschema l.lschema
     && t.prov = l.lprov

let append_from t l ~srcs ~src_at ~vals ~val_at ~consts =
  if t.is_retired then invalid_arg "Temp_table.append_from: table is retired";
  if has_layout t l then begin
    Meter.tick_c c_bound_append;
    reserve t 1;
    let base = t.nrows * t.nslots in
    for s = 0 to t.nslots - 1 do
      let r = srcs.(src_at + l.slot_of.(s)) in
      Record.pin r;
      t.srcs.(base + s) <- r
    done;
    let base = t.nrows * t.nmats in
    for m = 0 to t.nmats - 1 do
      t.mats.(base + m) <- cell l ~vals ~val_at ~consts m
    done;
    t.nrows <- t.nrows + 1
  end
  else if t.nslots = 0 && Schema.equal_layout t.tschema l.lschema then begin
    (* A fully materialized destination (a TCB rebuilt by crash recovery):
       copy by value, as [absorb]'s slow path does. *)
    Meter.tick_c c_bound_append;
    reserve t 1;
    let base = t.nrows * t.nmats in
    for col = 0 to Array.length t.prov - 1 do
      match t.prov.(col) with
      | Computed m ->
        t.mats.(base + m) <- layout_value l ~srcs ~src_at ~vals ~val_at ~consts col
      | From_record _ -> assert false
    done;
    t.nrows <- t.nrows + 1
  end
  else
    invalid_arg
      (Printf.sprintf "Temp_table.append_from: %s does not have the bound layout"
         t.tname)

let tick_appends n = Meter.tick_cn c_bound_append n

let get t row col =
  match t.prov.(col) with
  | From_record (slot, off) ->
    Record.value t.srcs.((row * t.nslots) + slot) off
  | Computed m -> t.mats.((row * t.nmats) + m)

let row_values t row =
  Array.init (Array.length t.prov) (fun c -> get t row c)

let row_source t row slot = t.srcs.((row * t.nslots) + slot)

let read_row t row ~vals ~srcs =
  for c = 0 to Array.length t.prov - 1 do
    vals.(c) <- get t row c
  done;
  Array.blit t.srcs (row * t.nslots) srcs 0 t.nslots

let iter t f =
  for i = 0 to t.nrows - 1 do
    f i
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.nrows - 1 do
    acc := f !acc i
  done;
  !acc

let same_static_map t prov = t.prov == prov || t.prov = prov

let same_layout a b =
  Schema.equal_layout a.tschema b.tschema
  && a.nslots = b.nslots && a.prov = b.prov

let clear_arena t =
  if t.nslots > 0 then Array.fill t.srcs 0 (t.nrows * t.nslots) Record.dummy;
  t.nrows <- 0

(* [absorb]'s two paths: equal layouts, or a fully materialized
   destination with the source's column schema. *)
let into_materialized dst src =
  dst.nslots = 0 && Schema.equal_layout dst.tschema src.tschema

let can_absorb dst src =
  (not dst.is_retired) && (same_layout dst src || into_materialized dst src)

let absorb dst src =
  if dst.is_retired then invalid_arg "Temp_table.absorb: destination retired";
  if same_layout dst src then begin
    (* Move rows by arena blit (pins move with them, so no repin/unpin). *)
    Meter.tick_cn c_bound_append src.nrows;
    reserve dst src.nrows;
    if dst.nslots > 0 then
      Array.blit src.srcs 0 dst.srcs (dst.nrows * dst.nslots)
        (src.nrows * src.nslots);
    if dst.nmats > 0 then
      Array.blit src.mats 0 dst.mats (dst.nrows * dst.nmats)
        (src.nrows * src.nmats);
    dst.nrows <- dst.nrows + src.nrows;
    clear_arena src
  end
  else if into_materialized dst src then begin
    (* Fully-materialized destination (a recovered TCB rebuilt from the
       checkpoint/log, which carries no record pointers): copy the source
       rows by value.  append_values ticks "bound_append" per row, matching
       the fast path's metering. *)
    for i = 0 to src.nrows - 1 do
      append_values dst (row_values src i)
    done;
    Array.iter Record.unpin (Array.sub src.srcs 0 (src.nrows * src.nslots));
    clear_arena src
  end
  else
    invalid_arg
      (Printf.sprintf "Temp_table.absorb: layout mismatch between %s and %s"
         dst.tname src.tname)

let retire t =
  if not t.is_retired then begin
    t.is_retired <- true;
    for i = 0 to (t.nrows * t.nslots) - 1 do
      Record.unpin t.srcs.(i)
    done;
    clear_arena t
  end

let retired t = t.is_retired

let to_rows ?(limit = max_int) t =
  List.init (min t.nrows limit) (fun i -> row_values t i)
