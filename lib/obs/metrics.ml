type labels = (string * string) list

exception Duplicate of string

let canon labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let identity name labels =
  match labels with
  | [] -> name
  | labels ->
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

type source =
  | Src_counter of int ref
  | Src_gauge of float ref
  | Src_hist of Histogram.t
  | Src_probe_int of (unit -> int)
  | Src_probe_float of (unit -> float)
  | Src_probe_hist of (unit -> Histogram.t)

type family_sample =
  | Sample_int of int
  | Sample_float of float
  | Sample_hist of Histogram.t

type entry = { name : string; labels : labels; source : source }

type t = {
  mutable entries : entry list;  (* newest first *)
  mutable families : (string * (unit -> (labels * family_sample) list)) list;
  ids : (string, unit) Hashtbl.t;
}

let create () = { entries = []; families = []; ids = Hashtbl.create 64 }

let register t ~name ~labels source =
  let labels = canon labels in
  let id = identity name labels in
  if Hashtbl.mem t.ids id then raise (Duplicate id);
  Hashtbl.add t.ids id ();
  t.entries <- { name; labels; source } :: t.entries

type counter = int ref

let counter t ?(labels = []) name =
  let r = ref 0 in
  register t ~name ~labels (Src_counter r);
  r

let inc ?(n = 1) r = r := !r + n

type gauge = float ref

let gauge t ?(labels = []) name =
  let r = ref 0.0 in
  register t ~name ~labels (Src_gauge r);
  r

let set r v = r := v

let histogram t ?(labels = []) name =
  let h = Histogram.create () in
  register t ~name ~labels (Src_hist h);
  h

let probe_int t ?(labels = []) name f =
  register t ~name ~labels (Src_probe_int f)

let probe_float t ?(labels = []) name f =
  register t ~name ~labels (Src_probe_float f)

let probe_hist t ?(labels = []) name f =
  register t ~name ~labels (Src_probe_hist f)

let probe_family t name f = t.families <- (name, f) :: t.families

type datum =
  | Int of int
  | Float of float
  | Histo of Histogram.summary * (float * float * int) list

type row = { name : string; labels : labels; datum : datum }

let datum_of_hist h = Histo (Histogram.summary h, Histogram.buckets h)

let row_of_entry e =
  let datum =
    match e.source with
    | Src_counter r -> Int !r
    | Src_gauge r -> Float !r
    | Src_hist h -> datum_of_hist h
    | Src_probe_int f -> Int (f ())
    | Src_probe_float f -> Float (f ())
    | Src_probe_hist f -> datum_of_hist (f ())
  in
  { name = e.name; labels = e.labels; datum }

(* Integer label values ([shard=2], [replica=10]) order as numbers, the
   shorter first, and before any other value; other values order as
   strings.  That is a total order, as the sort needs. *)
let digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let compare_value a b =
  match (digits a, digits b) with
  | true, true -> (
    match Int.compare (String.length a) (String.length b) with 0 -> String.compare a b | c -> c)
  | true, false -> -1
  | false, true -> 1
  | false, false -> String.compare a b

let compare_label (ka, va) (kb, vb) =
  match String.compare ka kb with 0 -> compare_value va vb | c -> c

let by_identity a b =
  match String.compare a.name b.name with
  | 0 -> List.compare compare_label a.labels b.labels
  | c -> c

let snapshot t =
  let fixed = List.rev_map row_of_entry t.entries in
  let dynamic =
    List.concat_map
      (fun (name, f) ->
        List.map
          (fun (labels, sample) ->
            let labels = canon labels in
            let datum =
              match sample with
              | Sample_int i -> Int i
              | Sample_float v -> Float v
              | Sample_hist h -> datum_of_hist h
            in
            { name; labels; datum })
          (f ()))
      t.families
  in
  let rows = fixed @ dynamic in
  let seen = Hashtbl.create (List.length rows) in
  List.iter
    (fun r ->
      let id = identity r.name r.labels in
      if Hashtbl.mem seen id then raise (Duplicate id);
      Hashtbl.add seen id ())
    rows;
  List.sort by_identity rows

let find_all rows ?(labels = []) ?across name =
  let labels = canon labels in
  let key r =
    match across with
    | Some k when not (List.mem_assoc k labels) -> List.remove_assoc k r.labels
    | _ -> r.labels
  in
  List.filter_map
    (fun r -> if r.name = name && key r = labels then Some r.datum else None)
    rows

let find rows ?labels name =
  match find_all rows ?labels name with d :: _ -> Some d | [] -> None

let tagged key snapshots =
  let tag i r = { r with labels = canon ((key, string_of_int i) :: r.labels) } in
  List.sort by_identity (List.concat (List.mapi (fun i -> List.map (tag i)) snapshots))

let json_of_rows ?(buckets = true) rows =
  let row_json r =
    let label_obj = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.labels) in
    let head = [ ("name", Json.Str r.name); ("labels", label_obj) ] in
    match r.datum with
    | Int i -> Json.Obj (head @ [ ("type", Json.Str "counter"); ("value", Json.Int i) ])
    | Float v ->
      Json.Obj (head @ [ ("type", Json.Str "gauge"); ("value", Json.Float v) ])
    | Histo (s, bs) ->
      Json.Obj
        (head
        @ (("type", Json.Str "histogram") :: Histogram.summary_fields s)
        @
        if not buckets then []
        else
          [
            ( "buckets",
              Json.List
                (List.map
                   (fun (lo, hi, c) ->
                     Json.List [ Json.Float lo; Json.Float hi; Json.Int c ])
                   bs) );
          ])
  in
  Json.Obj [ ("metrics", Json.List (List.map row_json rows)) ]

let csv_of_rows rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "name,labels,type,value,count,sum,mean,min,max,p50,p90,p99\n";
  let fl v = Printf.sprintf "%.12g" v in
  List.iter
    (fun r ->
      let labels =
        String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) r.labels)
      in
      let cells =
        match r.datum with
        | Int i ->
          [ r.name; labels; "counter"; string_of_int i; ""; ""; ""; ""; ""; "";
            ""; "" ]
        | Float v ->
          [ r.name; labels; "gauge"; fl v; ""; ""; ""; ""; ""; ""; ""; "" ]
        | Histo (s, _) ->
          [
            r.name; labels; "histogram"; "";
            string_of_int s.Histogram.n;
            fl s.Histogram.sum; fl s.Histogram.mean; fl s.Histogram.min;
            fl s.Histogram.max; fl s.Histogram.p50; fl s.Histogram.p90;
            fl s.Histogram.p99;
          ]
      in
      Buffer.add_string buf (String.concat "," cells);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
