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
      ] );
  ]
