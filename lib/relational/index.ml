let c_index_probe = Meter.counter "index_probe"
let c_index_update = Meter.counter "index_update"

type kind = Hash | Ordered

module Key = struct
  type t = Value.t list

  let equal a b = List.length a = List.length b && List.for_all2 Value.equal a b

  (* Fold the per-value hashes instead of materializing a list of them;
     keys equal under [equal] hash equal because [Value.hash] already
     identifies numerically-equal Int/Float. *)
  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 5381 k

  let compare a b =
    let rec loop a b =
      match (a, b) with
      | [], [] -> 0
      | [], _ -> -1
      | _, [] -> 1
      | x :: a', y :: b' ->
        let c = Value.compare x y in
        if c <> 0 then c else loop a' b'
    in
    loop a b
end

module KeyTbl = Hashtbl.Make (Key)

type store =
  | SHash of Record.t list ref KeyTbl.t
  | STree of (Key.t, Record.t list) Rbtree.t ref

type t = {
  iname : string;
  icols : int array;
  store : store;
  mutable count : int;
}

let create ?(size_hint = 256) ~name ~kind ~cols () =
  let store =
    match kind with
    | Hash -> SHash (KeyTbl.create (max 256 size_hint))
    | Ordered -> STree (ref Rbtree.empty)
  in
  { iname = name; icols = cols; store; count = 0 }

let name t = t.iname

let kind t = match t.store with SHash _ -> Hash | STree _ -> Ordered

let key_cols t = t.icols

let key_of_record t (r : Record.t) =
  match t.icols with
  | [| i |] -> [ Record.value r i ]
  | icols ->
    let n = Array.length icols in
    let rec build j =
      if j >= n then [] else Record.value r icols.(j) :: build (j + 1)
    in
    build 0

let cmp = Key.compare

let add t r =
  Meter.tick_c c_index_update;
  let key = key_of_record t r in
  (match t.store with
  | SHash h -> (
    (* posting lists live in mutable cells, so the steady-state add is a
       single probe with no rebinding ([find], not [find_opt]: no option
       is allocated on this path) *)
    match KeyTbl.find h key with
    | cell -> cell := r :: !cell
    | exception Not_found -> KeyTbl.add h key (ref [ r ]))
  | STree tr ->
    let cur = match Rbtree.find ~cmp key !tr with Some l -> l | None -> [] in
    tr := Rbtree.insert ~cmp key (r :: cur) !tr);
  t.count <- t.count + 1

(* [l] without the first record whose rid is [rid], keeping the order of
   the rest and sharing the tail after it.  @raise Not_found if absent. *)
let rec drop_rid rid = function
  | [] -> raise Not_found
  | (x : Record.t) :: rest -> if x.rid = rid then rest else x :: drop_rid rid rest

let remove t r =
  Meter.tick_c c_index_update;
  let key = key_of_record t r in
  match t.store with
  | SHash h -> (
    match KeyTbl.find h key with
    | exception Not_found -> ()
    | cell -> (
      match drop_rid r.rid !cell with
      | exception Not_found -> ()
      | [] ->
        t.count <- t.count - 1;
        KeyTbl.remove h key
      | l' ->
        t.count <- t.count - 1;
        cell := l'))
  | STree tr -> (
    match Rbtree.find ~cmp key !tr with
    | None -> ()
    | Some l -> (
      match drop_rid r.rid l with
      | exception Not_found -> ()
      | [] ->
        t.count <- t.count - 1;
        tr := Rbtree.remove ~cmp key !tr
      | l' ->
        t.count <- t.count - 1;
        tr := Rbtree.insert ~cmp key l' !tr))

(* Do [a] and [b] agree on every key column from the [j]-th on? *)
let rec same_key icols (a : Record.t) (b : Record.t) j =
  j >= Array.length icols
  || Value.equal a.values.(icols.(j)) b.values.(icols.(j))
     && same_key icols a b (j + 1)

let replace t ~old r =
  match t.store with
  | SHash h when same_key t.icols old r 0 -> (
    (* [remove old] then [add r], fused into one probe: both find the same
       posting cell.  The result is the same list, [r] first. *)
    Meter.tick_cn c_index_update 2;
    let key = key_of_record t r in
    match KeyTbl.find h key with
    | exception Not_found ->
      KeyTbl.add h key (ref [ r ]);
      t.count <- t.count + 1
    | cell -> (
      match drop_rid old.rid !cell with
      | l' -> cell := r :: l'
      | exception Not_found ->
        cell := r :: !cell;
        t.count <- t.count + 1))
  | SHash _ | STree _ ->
    remove t old;
    add t r

let lookup t key =
  Meter.tick_c c_index_probe;
  match t.store with
  | SHash h -> (
    match KeyTbl.find h key with cell -> !cell | exception Not_found -> [])
  | STree tr -> (
    match Rbtree.find ~cmp key !tr with Some l -> l | None -> [])

let range t ?lo ?hi f =
  match t.store with
  | SHash _ -> invalid_arg "Index.range: not an ordered index"
  | STree tr ->
    Meter.tick_c c_index_probe;
    Rbtree.range ~cmp ?lo ?hi (fun _ l -> List.iter f (List.rev l)) !tr

let ordered_entries t =
  match t.store with
  | SHash _ -> invalid_arg "Index.ordered_entries: not an ordered index"
  | STree tr ->
    Meter.tick_c c_index_probe;
    let acc = ref [] in
    Rbtree.range ~cmp (fun k l -> acc := (k, List.rev l) :: !acc) !tr;
    List.rev !acc

let compare_keys = Key.compare

let cardinal t = t.count

let distinct_keys t =
  match t.store with
  | SHash h -> KeyTbl.length h
  | STree tr -> Rbtree.cardinal !tr
