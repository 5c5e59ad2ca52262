open Strip_relational

let mk () =
  Table.create ~name:"t"
    ~schema:(Schema.of_list [ ("k", Value.TStr); ("v", Value.TInt) ])

let row k v = [| Value.Str k; Value.Int v |]

let contents tb =
  List.map
    (fun r -> (Value.to_string r.(0), Value.to_int r.(1)))
    (Table.to_rows tb)

let test_insert_iterate () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  ignore (Table.insert tb (row "b" 2));
  Alcotest.(check int) "cardinal" 2 (Table.cardinal tb);
  Alcotest.(check (list (pair string int))) "order" [ ("a", 1); ("b", 2) ]
    (contents tb)

let test_insert_validates () =
  let tb = mk () in
  match Table.insert tb [| Value.Int 1; Value.Int 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "schema violation accepted"

let test_update_versioning () =
  let tb = mk () in
  let r = Table.insert tb (row "a" 1) in
  Record.reset_reclaimed ();
  let r' = Table.update tb r (row "a" 2) in
  Alcotest.(check bool) "old retired" false r.Record.live;
  Alcotest.(check bool) "new live" true r'.Record.live;
  Alcotest.(check bool) "fresh rid" true (r'.Record.rid <> r.Record.rid);
  Alcotest.(check int) "old value immutable" 1 (Value.to_int (Record.value r 1));
  Alcotest.(check int) "unpinned old reclaimed immediately" 1
    (Record.reclaimed_count ());
  Alcotest.(check (list (pair string int))) "table sees new" [ ("a", 2) ]
    (contents tb)

let test_update_keeps_position () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  let b = Table.insert tb (row "b" 2) in
  ignore (Table.insert tb (row "c" 3));
  ignore (Table.update tb b (row "b" 20));
  Alcotest.(check (list (pair string int)))
    "in place" [ ("a", 1); ("b", 20); ("c", 3) ] (contents tb)

let test_pinned_old_version_survives () =
  let tb = mk () in
  let r = Table.insert tb (row "a" 1) in
  Record.pin r;
  Record.reset_reclaimed ();
  ignore (Table.update tb r (row "a" 2));
  Alcotest.(check int) "not reclaimed while pinned" 0 (Record.reclaimed_count ());
  Alcotest.(check int) "pre-image readable" 1 (Value.to_int (Record.value r 1));
  Record.unpin r;
  Alcotest.(check int) "reclaimed on last unpin" 1 (Record.reclaimed_count ())

let test_update_nonresident_rejected () =
  let tb = mk () in
  let r = Table.insert tb (row "a" 1) in
  Table.delete tb r;
  match Table.update tb r (row "a" 2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "update of deleted record accepted"

let test_delete () =
  let tb = mk () in
  let r = Table.insert tb (row "a" 1) in
  ignore (Table.insert tb (row "b" 2));
  Table.delete tb r;
  Alcotest.(check (list (pair string int))) "gone" [ ("b", 2) ] (contents tb);
  Alcotest.(check bool) "retired" false r.Record.live

let test_index_maintenance () =
  let tb = mk () in
  let idx = Table.create_index tb ~name:"by_k" ~kind:Index.Hash ~cols:[ "k" ] in
  let r = Table.insert tb (row "a" 1) in
  ignore (Table.insert tb (row "a" 2));
  Alcotest.(check int) "two under a" 2
    (List.length (Index.lookup idx [ Value.Str "a" ]));
  let r' = Table.update tb r (row "z" 1) in
  Alcotest.(check int) "moved out of a" 1
    (List.length (Index.lookup idx [ Value.Str "a" ]));
  Alcotest.(check int) "into z" 1 (List.length (Index.lookup idx [ Value.Str "z" ]));
  Table.delete tb r';
  Alcotest.(check int) "delete removes posting" 0
    (List.length (Index.lookup idx [ Value.Str "z" ]))

let test_index_backfill_and_lookup_by_cols () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  let idx = Table.create_index tb ~name:"by_k" ~kind:Index.Hash ~cols:[ "k" ] in
  Alcotest.(check int) "existing rows indexed" 1
    (List.length (Index.lookup idx [ Value.Str "a" ]));
  Alcotest.(check bool) "index_on finds it" true
    (Table.index_on tb [ "k" ] <> None);
  Alcotest.(check bool) "wrong cols" true (Table.index_on tb [ "v" ] = None);
  match Table.create_index tb ~name:"by_k" ~kind:Index.Hash ~cols:[ "v" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate index name accepted"

let test_full_cursor () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  ignore (Table.insert tb (row "b" 2));
  let c = Table.open_cursor tb in
  let fetched = ref [] in
  let rec loop () =
    match Table.fetch c with
    | Some r ->
      fetched := Value.to_string (Record.value r 0) :: !fetched;
      loop ()
    | None -> ()
  in
  loop ();
  Table.close_cursor c;
  Alcotest.(check (list string)) "scan order" [ "a"; "b" ] (List.rev !fetched);
  match Table.fetch c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fetch on closed cursor accepted"

let test_cursor_update_delete () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  ignore (Table.insert tb (row "b" 2));
  ignore (Table.insert tb (row "c" 3));
  let c = Table.open_cursor tb in
  (* bump every row through the cursor, delete "b" *)
  let rec loop () =
    match Table.fetch c with
    | None -> ()
    | Some r ->
      if Value.to_string (Record.value r 0) = "b" then Table.cursor_delete c
      else
        ignore
          (Table.cursor_update c
             [| Record.value r 0; Value.add (Record.value r 1) (Value.Int 10) |]);
      loop ()
  in
  loop ();
  Table.close_cursor c;
  Alcotest.(check (list (pair string int)))
    "updated through cursor" [ ("a", 11); ("c", 13) ] (contents tb)

let test_index_cursor () =
  let tb = mk () in
  let idx = Table.create_index tb ~name:"by_k" ~kind:Index.Hash ~cols:[ "k" ] in
  ignore (Table.insert tb (row "a" 1));
  ignore (Table.insert tb (row "b" 2));
  ignore (Table.insert tb (row "a" 3));
  let c = Table.open_index_cursor tb idx [ Value.Str "a" ] in
  let n = ref 0 in
  let rec loop () =
    match Table.fetch c with
    | Some _ ->
      incr n;
      loop ()
    | None -> ()
  in
  loop ();
  Table.close_cursor c;
  Alcotest.(check int) "matches" 2 !n

let test_cursor_update_without_fetch () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  let c = Table.open_cursor tb in
  match Table.cursor_update c (row "a" 9) with
  | exception Invalid_argument _ -> Table.close_cursor c
  | _ -> Alcotest.fail "update without current record accepted"

let test_clear () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  ignore (Table.insert tb (row "b" 2));
  Table.clear tb;
  Alcotest.(check int) "empty" 0 (Table.cardinal tb);
  ignore (Table.insert tb (row "c" 3));
  Alcotest.(check (list (pair string int))) "usable after clear" [ ("c", 3) ]
    (contents tb)

(* [version] moves on every row or index change and on nothing else;
   [index_gen] moves only when the index list changes, so cached plans
   survive row writes. *)
let test_version () =
  let tb = mk () in
  let check_moves what ~ixgen f =
    let v = Table.version tb and g = Table.index_gen tb in
    let x = f () in
    Alcotest.(check bool) (what ^ " bumps version") true (Table.version tb > v);
    Alcotest.(check int)
      (what ^ (if ixgen then " bumps" else " keeps") ^ " index_gen")
      (if ixgen then g + 1 else g)
      (Table.index_gen tb);
    x
  in
  let check_still what f =
    let v = Table.version tb and g = Table.index_gen tb in
    let x = f () in
    Alcotest.(check int) (what ^ " keeps version") v (Table.version tb);
    Alcotest.(check int) (what ^ " keeps index_gen") g (Table.index_gen tb);
    x
  in
  let a = check_moves "insert" ~ixgen:false (fun () -> Table.insert tb (row "a" 1)) in
  ignore (check_moves "insert" ~ixgen:false (fun () -> Table.insert tb (row "b" 2)));
  let last = check_moves "insert" ~ixgen:false (fun () -> Table.insert tb (row "c" 3)) in
  ignore (check_moves "update" ~ixgen:false (fun () -> Table.update tb a (row "a" 5)));
  let ix =
    check_moves "create_index" ~ixgen:true (fun () ->
        Table.create_index tb ~name:"by_k" ~kind:Index.Ordered ~cols:[ "k" ])
  in
  check_still "reads" (fun () ->
      ignore (Table.cardinal tb);
      ignore (Table.to_rows tb);
      Table.iter tb ignore;
      ignore (Table.find_index tb "by_k");
      ignore (Table.index_on tb [ "k" ]);
      ignore (Index.lookup ix [ Value.Str "a" ]);
      let drain c =
        while Table.fetch c <> None do () done;
        Table.close_cursor c
      in
      drain (Table.open_cursor tb);
      drain (Table.open_index_cursor tb ix [ Value.Str "b" ]);
      drain (Table.open_range_cursor tb ix ~lo:[ Value.Str "a" ] ()));
  let c = check_still "open/fetch" (fun () ->
      let c = Table.open_cursor tb in
      ignore (Table.fetch c);
      c)
  in
  ignore (check_moves "cursor_update" ~ixgen:false (fun () -> Table.cursor_update c (row "a" 6)));
  ignore (check_still "fetch" (fun () -> Table.fetch c));
  check_moves "cursor_delete" ~ixgen:false (fun () -> Table.cursor_delete c);
  check_still "close" (fun () -> Table.close_cursor c);
  (* the cursor deleted "b"; "c" is still live *)
  check_moves "delete" ~ixgen:false (fun () -> Table.delete tb last);
  check_moves "clear" ~ixgen:false (fun () -> Table.clear tb)

let test_update_superseded_rejected () =
  let tb = mk () in
  let r = Table.insert tb (row "a" 1) in
  let r' = Table.update tb r (row "a" 2) in
  (* [r] shares its row's base with the live [r'], but is not it *)
  (match Table.update tb r (row "a" 3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "update of superseded version accepted");
  (match Table.delete tb r with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "delete of superseded version accepted");
  Alcotest.(check bool) "live version untouched" true r'.Record.live;
  Alcotest.(check (list (pair string int))) "table unchanged" [ ("a", 2) ]
    (contents tb)

(* ------------------------------------------------------------------ *)
(* Differential test of table and index maintenance.  Rows carry a
   unique id in column 0 that no update changes.  The reference keeps
   the rows in list order and each index's posting lists as ids, newest
   first, maintained by [remove] then [add]: an updated row moves to the
   head of its key's list even when the key is unchanged.  Posting order
   feeds join output order, so it is compared exactly. *)

module Ref_table = struct
  type t = {
    mutable rows : Value.t array list;  (* list order *)
    postings : (int array * (Value.t list, int list) Hashtbl.t) list;
        (* per index, in the table's index order *)
  }

  let create key_cols =
    { rows = []; postings = List.map (fun c -> (c, Hashtbl.create 16)) key_cols }

  let id (v : Value.t array) = Value.to_int v.(0)
  let key cols (v : Value.t array) = Array.to_list (Array.map (fun i -> v.(i)) cols)

  let add v =
    List.iter (fun (cols, h) ->
        let k = key cols v in
        let l = Option.value ~default:[] (Hashtbl.find_opt h k) in
        Hashtbl.replace h k (id v :: l))

  let remove v =
    List.iter (fun (cols, h) ->
        let k = key cols v in
        match List.filter (fun i -> i <> id v) (Hashtbl.find h k) with
        | [] -> Hashtbl.remove h k
        | l -> Hashtbl.replace h k l)

  let find t i = List.find (fun v -> id v = i) t.rows

  let insert t v =
    t.rows <- t.rows @ [ v ];
    add v t.postings

  let delete t i =
    let v = find t i in
    t.rows <- List.filter (fun v -> id v <> i) t.rows;
    remove v t.postings

  let update t i v' =
    let v = find t i in
    t.rows <- List.map (fun x -> if id x = i then v' else x) t.rows;
    List.iter
      (fun p ->
        remove v [ p ];
        add v' [ p ])
      t.postings
end

let test_table_index_differential () =
  let module Tr = Strip_txn.Transaction in
  let module Tlog = Strip_txn.Tlog in
  let schema =
    Schema.of_list
      [ ("id", Value.TInt); ("k", Value.TStr); ("g", Value.TInt); ("v", Value.TInt) ]
  in
  let ks = [| "a"; "b"; "c" |] in
  let specs =
    [
      ("by_g", Index.Hash, [ "g" ]);
      ("g_ord", Index.Ordered, [ "g" ]);
      ("by_kg", Index.Hash, [ "k"; "g" ]);
      ("by_v", Index.Hash, [ "v" ]);
      ("v_ord", Index.Ordered, [ "v" ]);
    ]
  in
  (* every key a row can have, per index *)
  let domain cols =
    let vals c =
      match c with
      | "k" -> Array.to_list (Array.map (fun s -> Value.Str s) ks)
      | "g" -> List.init 3 (fun i -> Value.Int i)
      | _ -> List.init 5 (fun i -> Value.Int i)
    in
    List.fold_right
      (fun c acc -> List.concat_map (fun v -> List.map (fun k -> v :: k) acc) (vals c))
      cols [ [] ]
  in
  for seq = 0 to 59 do
    let rng = Random.State.make [| 1997; seq |] in
    let cat = Catalog.create () in
    let tb = Catalog.create_table cat ~name:"t" ~schema in
    let idxs =
      List.map (fun (name, kind, cols) -> Table.create_index tb ~name ~kind ~cols) specs
    in
    let rt = Ref_table.create (List.map Index.key_cols idxs) in
    let locks = Strip_txn.Lock.create () and clock = Strip_txn.Clock.create () in
    let next_id = ref 0 in
    let rand_row id =
      [|
        Value.Int id;
        Value.Str ks.(Random.State.int rng 3);
        Value.Int (Random.State.int rng 3);
        Value.Int (Random.State.int rng 5);
      |]
    in
    let live id =
      let found = ref None in
      Table.iter tb (fun r -> if Ref_table.id r.Record.values = id then found := Some r);
      Option.get !found
    in
    let pick () =
      match rt.Ref_table.rows with
      | [] -> None
      | rows -> Some (Ref_table.id (List.nth rows (Random.State.int rng (List.length rows))))
    in
    (* key-preserving (v only, or nothing) and key-changing updates *)
    let updated (v : Value.t array) =
      let v' = Array.copy v in
      (match Random.State.int rng 4 with
      | 0 -> ()
      | 1 -> v'.(3) <- Value.Int (Random.State.int rng 5)
      | 2 -> v'.(2) <- Value.Int (Random.State.int rng 3)
      | _ -> v'.(1) <- Value.Str ks.(Random.State.int rng 3));
      v'
    in
    (* one write, to both sides; [log] records it for an abort's undo *)
    let write ?(log : Sql_exec.hooks option) () =
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 ->
        incr next_id;
        let v = rand_row !next_id in
        let r = Table.insert tb (Array.copy v) in
        Ref_table.insert rt v;
        Option.iter (fun (h : Sql_exec.hooks) -> h.on_insert tb r) log
      | 4 | 5 | 6 | 7 -> (
        match pick () with
        | None -> ()
        | Some id ->
          let r = live id in
          let v' = updated r.Record.values in
          let r' =
            if Random.State.bool rng then Table.update tb r (Array.copy v')
            else begin
              (* the cursor path: find the row through its [by_g] key *)
              let c = Table.open_index_cursor tb (List.hd idxs) [ r.Record.values.(2) ] in
              let rec seek () =
                match Table.fetch c with
                | Some x when x == r -> Table.cursor_update c (Array.copy v')
                | Some _ -> seek ()
                | None -> Alcotest.fail "row missing from its by_g postings"
              in
              let r' = seek () in
              Table.close_cursor c;
              r'
            end
          in
          Ref_table.update rt id v';
          Option.iter (fun (h : Sql_exec.hooks) -> h.on_update tb ~old_rec:r ~new_rec:r') log)
      | _ -> (
        match pick () with
        | None -> ()
        | Some id ->
          let r = live id in
          Table.delete tb r;
          Ref_table.delete rt id;
          Option.iter (fun (h : Sql_exec.hooks) -> h.on_delete tb r) log)
    in
    let check step =
      let ids rs = List.map (fun (r : Record.t) -> Ref_table.id r.Record.values) rs in
      let rows = ref [] in
      Table.iter tb (fun r -> rows := Array.to_list r.Record.values :: !rows);
      Alcotest.(check bool)
        (step ^ ": Table.iter order")
        true
        (List.rev !rows = List.map Array.to_list rt.rows);
      Alcotest.(check int) (step ^ ": cardinal") (List.length rt.rows) (Table.cardinal tb);
      List.iter2
        (fun idx (cols, h) ->
          Alcotest.(check int)
            (step ^ ": " ^ Index.name idx ^ " distinct_keys")
            (Hashtbl.length h) (Index.distinct_keys idx);
          Alcotest.(check int)
            (step ^ ": " ^ Index.name idx ^ " cardinal")
            (List.length rt.rows) (Index.cardinal idx);
          List.iter
            (fun key ->
              Alcotest.(check (list int))
                (Printf.sprintf "%s: %s postings of [%s]" step (Index.name idx)
                   (String.concat "; " (List.map Value.to_string key)))
                (Option.value ~default:[] (Hashtbl.find_opt h key))
                (ids (Index.lookup idx key)))
            (domain (List.map (fun i -> (Schema.col schema i).Schema.cname) (Array.to_list cols))))
        idxs rt.postings
    in
    for op = 0 to 119 do
      let step = Printf.sprintf "seq %d op %d" seq op in
      if Random.State.int rng 8 > 0 then write ()
      else begin
        (* an aborted transaction: its undo re-inserts deleted rows at the
           end and updates the rest back through [Table.update] *)
        let txn = Tr.begin_ ~cat ~locks ~clock () in
        let log = Tr.hooks txn in
        for _ = 1 to 1 + Random.State.int rng 5 do
          write ~log ()
        done;
        List.iter
          (fun (e : Tlog.entry) ->
            match e.change with
            | Tlog.Inserted r -> Ref_table.delete rt (Ref_table.id r.Record.values)
            | Tlog.Deleted r -> Ref_table.insert rt r.Record.values
            | Tlog.Updated { old_rec; _ } ->
              Ref_table.update rt (Ref_table.id old_rec.Record.values) old_rec.Record.values)
          (Tlog.entries_rev (Tr.log txn));
        Tr.abort txn
      end;
      check step
    done
  done

let suite =
  [
    ( "table",
      [
        Alcotest.test_case "insert and iterate" `Quick test_insert_iterate;
        Alcotest.test_case "insert validates schema" `Quick test_insert_validates;
        Alcotest.test_case "update creates a version" `Quick test_update_versioning;
        Alcotest.test_case "update keeps list position" `Quick test_update_keeps_position;
        Alcotest.test_case "pinned pre-image survives" `Quick test_pinned_old_version_survives;
        Alcotest.test_case "update of retired record rejected" `Quick test_update_nonresident_rejected;
        Alcotest.test_case "update of a superseded version is rejected" `Quick
          test_update_superseded_rejected;
        Alcotest.test_case "delete" `Quick test_delete;
        Alcotest.test_case "index maintenance on DML" `Quick test_index_maintenance;
        Alcotest.test_case "index backfill / lookup" `Quick test_index_backfill_and_lookup_by_cols;
        Alcotest.test_case "full-scan cursor" `Quick test_full_cursor;
        Alcotest.test_case "cursor update/delete" `Quick test_cursor_update_delete;
        Alcotest.test_case "index cursor" `Quick test_index_cursor;
        Alcotest.test_case "cursor update needs a fetch" `Quick test_cursor_update_without_fetch;
        Alcotest.test_case "clear" `Quick test_clear;
        Alcotest.test_case "version moves on every change only" `Quick
          test_version;
        Alcotest.test_case "table and index maintenance match a remove+add reference"
          `Quick test_table_index_differential;
      ] );
  ]
