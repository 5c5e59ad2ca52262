(* Counters live in a flat int array indexed by a small registry id; the
   string name is resolved once (at [counter] time) so hot paths tick by
   array index instead of hashing a string per operation.  Snapshots are
   plain array copies, and [diff] is a single linear scan — both sit on
   the engine's per-task path, so they must not allocate per counter. *)

type cell = int

let enabled = ref true
let index : (string, int) Hashtbl.t = Hashtbl.create 64
let names = ref (Array.make 64 "")
let vals = ref (Array.make 64 0)
let count = ref 0

let counter name =
  match Hashtbl.find_opt index name with
  | Some id -> id
  | None ->
    let id = !count in
    let cap = Array.length !vals in
    if id >= cap then begin
      let names' = Array.make (2 * cap) "" in
      Array.blit !names 0 names' 0 cap;
      names := names';
      let vals' = Array.make (2 * cap) 0 in
      Array.blit !vals 0 vals' 0 cap;
      vals := vals'
    end;
    !names.(id) <- name;
    Hashtbl.add index name id;
    incr count;
    id

let tick_c c =
  if !enabled then begin
    let v = !vals in
    Array.unsafe_set v c (Array.unsafe_get v c + 1)
  end

let tick_cn c n =
  if !enabled && n <> 0 then begin
    assert (n > 0);
    let v = !vals in
    Array.unsafe_set v c (Array.unsafe_get v c + n)
  end

let tick name = if !enabled then tick_c (counter name)
let tick_n name n = if !enabled && n <> 0 then tick_cn (counter name) n

let get name =
  match Hashtbl.find_opt index name with Some id -> !vals.(id) | None -> 0

let reset () = Array.fill !vals 0 !count 0

type snapshot = int array
(* values of counters [0, Array.length - 1] at capture time; counters
   registered later are implicitly 0 in this snapshot *)

let snapshot () = Array.sub !vals 0 !count

let snapshot_into buf =
  if Array.length buf = !count then begin
    Array.blit !vals 0 buf 0 !count;
    buf
  end
  else snapshot ()

(* Counter ids in name order, recomputed only when a counter registers.
   [diff] and the cost model's fused charge both walk this, so per-task
   accounting needs no sort and their float sums keep the historical
   (name-sorted) addition order bit for bit. *)
let sorted_ids = ref [||]
let sorted_for = ref (-1)

let ids_by_name () =
  if !sorted_for <> !count then begin
    let ids = Array.init !count (fun i -> i) in
    Array.sort (fun a b -> String.compare !names.(a) !names.(b)) ids;
    sorted_ids := ids;
    sorted_for := !count
  end;
  !sorted_ids

let name_of_cell id = !names.(id)
let cell_id id = id

let diff before after =
  let nb = Array.length before and na = Array.length after in
  let ids = ids_by_name () in
  let deltas = ref [] in
  for i = Array.length ids - 1 downto 0 do
    let id = ids.(i) in
    if id < na then begin
      let v0 = if id < nb then before.(id) else 0 in
      let v = after.(id) in
      if v <> v0 then deltas := (!names.(id), v - v0) :: !deltas
    end
  done;
  !deltas

let charge_diff before after ~rates ~missing =
  let nb = Array.length before and na = Array.length after in
  let ids = ids_by_name () in
  let acc = ref 0.0 in
  for i = 0 to Array.length ids - 1 do
    let id = ids.(i) in
    if id < na then begin
      let v0 = if id < nb then before.(id) else 0 in
      let d = after.(id) - v0 in
      if d <> 0 then
        if id < Array.length rates && not (Float.is_nan rates.(id)) then
          acc := !acc +. (rates.(id) *. float_of_int d)
        else acc := !acc +. (missing id *. float_of_int d)
    end
  done;
  !acc

let fold f init =
  let acc = ref init in
  for id = 0 to !count - 1 do
    acc := f !names.(id) !vals.(id) !acc
  done;
  !acc
