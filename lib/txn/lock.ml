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

type entry = {
  mutable lholders : (int * mode) list;
  mutable lwaiters : (int * mode) list;  (* FIFO order *)
}

type t = {
  entries : (resource, entry) Hashtbl.t;
  owned : (int, resource list ref) Hashtbl.t;
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
    entries = Hashtbl.create 256;
    owned = Hashtbl.create 32;
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
  match (a, b) with S, _ -> true | X, X -> true | X, S -> false

(* Wait-for edges: waiter -> every conflicting holder. *)
let wait_for_edges t =
  Hashtbl.fold
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

let holds t ~owner res =
  match Hashtbl.find_opt t.entries res with
  | None -> None
  | Some e -> (
    let modes = List.filter_map (fun (o, m) -> if o = owner then Some m else None) e.lholders in
    match modes with
    | [] -> None
    | l -> if List.mem X l then Some X else Some S)

let acquire t ~owner res mode =
  let e = entry_of t res in
  match holds t ~owner res with
  | Some held when mode_leq mode held -> Granted
  | held_opt ->
    let conflicting =
      List.filter
        (fun (o, m) -> o <> owner && (mode = X || m = X))
        e.lholders
    in
    if conflicting = [] then begin
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
      Granted
    end
    else begin
      let blockers = List.map fst conflicting in
      let edges = wait_for_edges t in
      let cycle =
        List.exists (fun b -> creates_cycle edges owner b) blockers
      in
      if cycle then Deadlock blockers
      else begin
        if
          not
            (List.exists (fun (o, m) -> o = owner && m = mode) e.lwaiters)
        then e.lwaiters <- e.lwaiters @ [ (owner, mode) ];
        Blocked blockers
      end
    end

let clear_waiters t ~owner =
  Hashtbl.iter
    (fun _ e -> e.lwaiters <- List.filter (fun (o, _) -> o <> owner) e.lwaiters)
    t.entries

(* Physically remove the owner's holder entries.  [tick] selects whether
   each released resource charges a ["release_lock"]: true on the commit /
   abort path (the Table-1 cost is paid then), false when flushing locks
   whose release was already charged at the deferred commit. *)
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
          if tick && List.length e.lholders < before then
            Meter.tick_c c_release_lock;
          if e.lholders = [] && e.lwaiters = [] then
            Hashtbl.remove t.entries res)
      !l;
    Hashtbl.remove t.owned owner);
  (* Clear the owner's waiter entries everywhere. *)
  clear_waiters t ~owner

let release_now t ~owner = release_physical ~tick:true t ~owner

let release_all t ~owner =
  if t.defer then begin
    (* Deferred commit: charge the releases now — they happen inside the
       task body's metering window, exactly where an immediate release
       would tick — but keep the holder entries as zombies until the
       engine flushes them at the simulated completion instant. *)
    (match Hashtbl.find_opt t.owned owner with
    | None -> ()
    | Some l -> List.iter (fun _ -> Meter.tick_c c_release_lock) !l);
    clear_waiters t ~owner;
    t.deferred <- owner :: t.deferred
  end
  else release_physical ~tick:true t ~owner

let flush t ~owner = release_physical ~tick:false t ~owner

let holders t res =
  match Hashtbl.find_opt t.entries res with
  | None -> []
  | Some e -> e.lholders

let waiters t res =
  match Hashtbl.find_opt t.entries res with
  | None -> []
  | Some e -> e.lwaiters

