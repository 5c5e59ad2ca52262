(* In-memory span recorder for the benchmark's own boundaries: each span
   has a name, a start, an end and a parent.  Spans are kept in memory
   and exported when the process ends (Chrome [traceEvents] plus
   per-name self time), so recording costs two clock reads and one
   allocation per span. *)

type span = { id : int; name : string; parent : int; start : float; stop : float }

let now = Unix.gettimeofday
let finished : span list ref = ref []
let open_ids = ref [ 0 ]
let next_id = ref 1

let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = List.hd !open_ids in
  open_ids := id :: !open_ids;
  let start = now () in
  let close () =
    open_ids := List.tl !open_ids;
    finished := { id; name; parent; start; stop = now () } :: !finished
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let all () = List.rev !finished
let duration s = s.stop -. s.start

(* Total seconds spent in spans called [name]. *)
let total name =
  List.fold_left (fun t s -> if s.name = name then t +. duration s else t) 0.0 !finished

(* Self time per span name: each span's duration minus the part covered
   by its direct children, summed over spans of the same name, in order
   of first completion. *)
let self_times () =
  let spans = all () in
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
  let add tbl k v = Hashtbl.replace tbl k (get tbl k +. v) in
  let child_time = Hashtbl.create 16 and self = Hashtbl.create 16 in
  List.iter (fun s -> add child_time s.parent (duration s)) spans;
  List.iter (fun s -> add self s.name (duration s -. get child_time s.id)) spans;
  List.fold_left (fun acc s -> if List.mem s.name acc then acc else s.name :: acc) [] spans
  |> List.rev_map (fun name -> (name, get self name))

(* Chrome trace-event export: one complete ("X") event per span, times
   in microseconds from the first span's start, all on one thread so a
   viewer nests children under their parents by time.  The caller adds
   the [pid]. *)
let chrome_events () =
  let spans = all () in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  List.map
    (fun s ->
      Strip_obs.Json.Obj
        [
          ("name", Strip_obs.Json.Str s.name);
          ("ph", Strip_obs.Json.Str "X");
          ("tid", Strip_obs.Json.Int 1);
          ("ts", Strip_obs.Json.Float ((s.start -. t0) *. 1e6));
          ("dur", Strip_obs.Json.Float (duration s *. 1e6));
          ( "args",
            Strip_obs.Json.Obj
              [ ("id", Strip_obs.Json.Int s.id); ("parent", Strip_obs.Json.Int s.parent) ] );
        ])
    spans
