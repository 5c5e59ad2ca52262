type entry = { mutable delta : float; created_at : float }

(* One source's merged seqs: all of [1 .. floor], and [above]
   (ascending, each above [floor + 1]). *)
type mark = { mutable floor : int; mutable above : int list }

type t = {
  mutable marks : mark array;  (* indexed by source shard id *)
  pending : (Strip_relational.Value.t list, entry) Hashtbl.t;
  mutable order : Strip_relational.Value.t list list;
      (* first-arrival order, reversed *)
  mutable offered : int;
  mutable dups : int;
  mutable merged : int;
  mutable fresh : int;
  mutable applied : int;
}

type verdict = Duplicate | Merged | Fresh

let create () =
  {
    marks = [||];
    pending = Hashtbl.create 16;
    order = [];
    offered = 0;
    dups = 0;
    merged = 0;
    fresh = 0;
    applied = 0;
  }

let check_src src =
  if src < 0 then invalid_arg "Dqueue: negative source shard id"

let mark_of t src =
  let n = Array.length t.marks in
  if src >= n then
    t.marks <-
      Array.init (src + 1) (fun i ->
          if i < n then t.marks.(i) else { floor = 0; above = [] });
  t.marks.(src)

(* [seq] continues [m]'s floor: advance it through [seq] and the seqs
   of [above] that follow on. *)
let rec absorb m seq above =
  m.floor <- seq;
  match above with
  | s :: tl when s = seq + 1 -> absorb m s tl
  | rest -> m.above <- rest

(* Record [seq] as merged; false if it already was.  The in-order case
   only moves the floor. *)
let add m seq =
  let fresh = seq > m.floor && not (List.mem seq m.above) in
  if fresh && seq = m.floor + 1 then absorb m seq m.above
  else if fresh then m.above <- List.merge Int.compare [ seq ] m.above;
  fresh

let offer t ~src ~seq ~key ~delta ~created_at =
  check_src src;
  if seq < 1 then invalid_arg "Dqueue: seq below 1";
  t.offered <- t.offered + 1;
  if not (add (mark_of t src) seq) then begin
    t.dups <- t.dups + 1;
    Duplicate
  end
  else begin
    match Hashtbl.find_opt t.pending key with
    | Some e ->
      e.delta <- e.delta +. delta;
      t.merged <- t.merged + 1;
      Merged
    | None ->
      Hashtbl.replace t.pending key { delta; created_at };
      t.order <- key :: t.order;
      t.fresh <- t.fresh + 1;
      Fresh
  end

let peek t ~key =
  match Hashtbl.find_opt t.pending key with
  | None -> None
  | Some e -> Some (e.delta, e.created_at)

let remove t ~key =
  if Hashtbl.mem t.pending key then begin
    Hashtbl.remove t.pending key;
    t.order <- List.filter (fun k -> k <> key) t.order;
    t.applied <- t.applied + 1
  end

let pending_keys t = List.rev t.order
let n_pending t = Hashtbl.length t.pending

let watermarks t =
  Array.to_list t.marks
  |> List.mapi (fun src m -> (src, m.floor, m.above))
  |> List.filter (fun (_, floor, above) -> floor > 0 || above <> [])

let floor t ~src =
  if src < Array.length t.marks then t.marks.(src).floor else 0

let pending_list t =
  List.map
    (fun key ->
      let e = Hashtbl.find t.pending key in
      (key, e.delta, e.created_at))
    (pending_keys t)

let restore t ~watermarks ~pending =
  List.iter (fun (src, _, _) -> check_src src) watermarks;
  t.marks <- [||];
  Hashtbl.reset t.pending;
  t.order <- [];
  List.iter
    (fun (src, floor, above) ->
      let m = mark_of t src in
      m.floor <- floor;
      m.above <- above)
    watermarks;
  List.iter
    (fun (key, delta, created_at) ->
      Hashtbl.replace t.pending key { delta; created_at };
      t.order <- key :: t.order)
    pending

let n_offered t = t.offered
let n_duplicates t = t.dups
let n_merged t = t.merged
let n_fresh t = t.fresh
let n_applied t = t.applied
