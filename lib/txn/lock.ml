open Strip_relational

let c_get_lock = Meter.counter "get_lock"
let c_release_lock = Meter.counter "release_lock"

type mode = S | X

type resource =
  | Rel of string
  | Rec of string * int

type outcome =
  | Granted
  | Blocked of int list
  | Deadlock of int list

type grant =
  | Held
  | Acquired
  | Refused of outcome

type entry = {
  mutable lholders : (int * mode) list;
  mutable lwaiters : (int * mode) list;  (* FIFO order *)
}

(* A typed table: one probe hashes the name once and compares without
   [compare_val].  Its iteration order reaches only [wait_for_edges]
   (a yes/no cycle test) and [clear_waiters], so it cannot show. *)
module Res = Hashtbl.Make (struct
  type t = resource

  let equal a b =
    match (a, b) with
    | Rel x, Rel y -> String.equal x y
    | Rec (x, i), Rec (y, j) -> i = j && String.equal x y
    | Rel _, Rec _ | Rec _, Rel _ -> false

  let hash = function
    | Rel x -> Hashtbl.hash x
    | Rec (x, i) -> (Hashtbl.hash x * 65599) + i
end)

module Owners = Hashtbl.Make (Int)

type t = {
  entries : entry Res.t;
  owned : resource list ref Owners.t;
  mutable n_waiters : int;  (* waiter entries queued over all of [entries] *)
  (* Deferred release (multi-server simulation): while [defer] is on, a
     committing owner's locks are kept in place as "zombie" holders — the
     transaction is over in real execution order but its simulated commit
     instant lies in the future, so later-dispatched overlapping tasks must
     still collide with it.  The engine flushes the zombies when the
     holder's completion event fires. *)
  mutable defer : bool;
  mutable deferred : int list;  (* owners deferred in the current window, newest first *)
}

let create () =
  {
    entries = Res.create 256;
    owned = Owners.create 32;
    n_waiters = 0;
    defer = false;
    deferred = [];
  }

let begin_defer t =
  t.defer <- true;
  t.deferred <- []

let end_defer t =
  t.defer <- false;
  let owners = List.rev t.deferred in
  t.deferred <- [];
  owners

(* Lookups use [find], not [find_opt]: a lock is taken per row written,
   and the option would be its only allocation besides the lock itself. *)
let entry_of t res =
  match Res.find t.entries res with
  | e -> e
  | exception Not_found ->
    let e = { lholders = []; lwaiters = [] } in
    Res.add t.entries res e;
    e

let owned_of t owner =
  match Owners.find t.owned owner with
  | l -> l
  | exception Not_found ->
    let l = ref [] in
    Owners.add t.owned owner l;
    l

let mode_leq a b =
  match (a, b) with S, _ -> true | X, X -> true | X, S -> false

(* Wait-for edges: waiter -> every conflicting holder. *)
let wait_for_edges t =
  Res.fold
    (fun _ e acc ->
      List.fold_left
        (fun acc (w, wm) ->
          List.fold_left
            (fun acc (h, hm) ->
              if h <> w && (wm = X || hm = X) then (w, h) :: acc else acc)
            acc e.lholders)
        acc e.lwaiters)
    t.entries []

(* Would adding edge (from, to_) close a cycle?  DFS from [to_]. *)
let creates_cycle edges from to_ =
  let rec reachable seen node =
    if node = from then true
    else if List.mem node seen then false
    else
      List.exists
        (fun (a, b) -> a = node && reachable (node :: seen) b)
        edges
  in
  reachable [] to_

(* The strongest mode [owner] holds among [holders]: [X] once any entry
   is [X], else [S] if any entry is its, else [None]. *)
let rec held_in owner acc = function
  | [] -> acc
  | (o, m) :: rest ->
    if o <> owner then held_in owner acc rest
    else (match m with X -> Some X | S -> held_in owner (Some S) rest)

let holds t ~owner res =
  match Res.find t.entries res with
  | e -> held_in owner None e.lholders
  | exception Not_found -> None

(* The holders other than [owner] whose mode conflicts with [mode], in
   holder order. *)
let rec blockers_of owner mode = function
  | [] -> []
  | (o, m) :: rest ->
    if o <> owner && (mode = X || m = X) then o :: blockers_of owner mode rest
    else blockers_of owner mode rest

let request t ~owner res mode =
  let e = entry_of t res in
  match held_in owner None e.lholders with
  | Some held when mode_leq mode held -> Held
  | held_opt ->
    let blockers = blockers_of owner mode e.lholders in
    if blockers = [] then begin
      (* Grant, possibly an upgrade. *)
      Meter.tick_c c_get_lock;
      (match held_opt with
      | Some _ ->
        e.lholders <-
          List.map (fun (o, m) -> if o = owner then (o, mode) else (o, m)) e.lholders
      | None ->
        e.lholders <- (owner, mode) :: e.lholders;
        let l = owned_of t owner in
        l := res :: !l);
      Acquired
    end
    else begin
      let edges = wait_for_edges t in
      let cycle =
        List.exists (fun b -> creates_cycle edges owner b) blockers
      in
      if cycle then Refused (Deadlock blockers)
      else begin
        if
          not
            (List.exists (fun (o, m) -> o = owner && m = mode) e.lwaiters)
        then begin
          e.lwaiters <- e.lwaiters @ [ (owner, mode) ];
          t.n_waiters <- t.n_waiters + 1
        end;
        Refused (Blocked blockers)
      end
    end

let acquire t ~owner res mode =
  match request t ~owner res mode with
  | Held | Acquired -> Granted
  | Refused o -> o

(* Skipped outright while nothing waits anywhere, as at most commits. *)
let clear_waiters t ~owner =
  if t.n_waiters > 0 then
    Res.iter
      (fun _ e ->
        if e.lwaiters <> [] then begin
          let before = List.length e.lwaiters in
          e.lwaiters <- List.filter (fun (o, _) -> o <> owner) e.lwaiters;
          t.n_waiters <- t.n_waiters - (before - List.length e.lwaiters)
        end)
      t.entries

(* Physically remove the owner's holder entries.  [tick] selects whether
   each released resource charges a ["release_lock"]: true on the commit /
   abort path (the Table-1 cost is paid then), false when flushing locks
   whose release was already charged at the deferred commit. *)
let release_physical ~tick t ~owner =
  (match Owners.find_opt t.owned owner with
  | None -> ()
  | Some l ->
    List.iter
      (fun res ->
        match Res.find_opt t.entries res with
        | None -> ()
        | Some e ->
          let before = List.length e.lholders in
          e.lholders <- List.filter (fun (o, _) -> o <> owner) e.lholders;
          if tick && List.length e.lholders < before then
            Meter.tick_c c_release_lock;
          if e.lholders = [] && e.lwaiters = [] then
            Res.remove t.entries res)
      !l;
    Owners.remove t.owned owner);
  (* Clear the owner's waiter entries everywhere. *)
  clear_waiters t ~owner

let release_now t ~owner = release_physical ~tick:true t ~owner

let release_all t ~owner =
  if t.defer then begin
    (* Deferred commit: charge the releases now — they happen inside the
       task body's metering window, exactly where an immediate release
       would tick — but keep the holder entries as zombies until the
       engine flushes them at the simulated completion instant. *)
    (match Owners.find_opt t.owned owner with
    | None -> ()
    | Some l -> List.iter (fun _ -> Meter.tick_c c_release_lock) !l);
    clear_waiters t ~owner;
    t.deferred <- owner :: t.deferred
  end
  else release_physical ~tick:true t ~owner

let flush t ~owner = release_physical ~tick:false t ~owner

let holders t res =
  match Res.find_opt t.entries res with
  | None -> []
  | Some e -> e.lholders

let waiters t res =
  match Res.find_opt t.entries res with
  | None -> []
  | Some e -> e.lwaiters

