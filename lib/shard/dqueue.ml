type entry = { mutable delta : float; created_at : float }

(* The merged seqs of one source shard, ascending, in [seqs.(0 .. len-1)]. *)
type run = { mutable seqs : int array; mutable len : int }

type t = {
  mutable runs : run array;  (* indexed by source shard id *)
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
    runs = [||];
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

let run_of t src =
  let n = Array.length t.runs in
  if src >= n then
    t.runs <-
      Array.init (max (src + 1) (2 * n)) (fun i ->
          if i < n then t.runs.(i) else { seqs = [||]; len = 0 });
  t.runs.(src)

(* Position of the first element >= [seq] in [r]. *)
let lower_bound r seq =
  let lo = ref 0 and hi = ref r.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if r.seqs.(mid) < seq then lo := mid + 1 else hi := mid
  done;
  !lo

(* Insert [seq] into [r]; false if it was already there.  A seq above
   the run's last element (the in-order case) appends without a search. *)
let add r seq =
  let i =
    if r.len = 0 || r.seqs.(r.len - 1) < seq then r.len else lower_bound r seq
  in
  if i < r.len && r.seqs.(i) = seq then false
  else begin
    if r.len = Array.length r.seqs then begin
      let a = Array.make (max 16 (2 * r.len)) 0 in
      Array.blit r.seqs 0 a 0 r.len;
      r.seqs <- a
    end;
    Array.blit r.seqs i r.seqs (i + 1) (r.len - i);
    r.seqs.(i) <- seq;
    r.len <- r.len + 1;
    true
  end

let offer t ~src ~seq ~key ~delta ~created_at =
  check_src src;
  t.offered <- t.offered + 1;
  if not (add (run_of t src) seq) then begin
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

let seen_list t =
  let acc = ref [] in
  for src = Array.length t.runs - 1 downto 0 do
    let r = t.runs.(src) in
    for i = r.len - 1 downto 0 do
      acc := (src, r.seqs.(i)) :: !acc
    done
  done;
  !acc

let pending_list t =
  List.map
    (fun key ->
      let e = Hashtbl.find t.pending key in
      (key, e.delta, e.created_at))
    (pending_keys t)

let restore t ~seen ~pending =
  List.iter (fun (src, _) -> check_src src) seen;
  t.runs <- [||];
  Hashtbl.reset t.pending;
  t.order <- [];
  List.iter (fun (src, seq) -> ignore (add (run_of t src) seq)) seen;
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
