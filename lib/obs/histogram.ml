type t = {
  gamma : float;
  log_gamma : float;
  tbl : (int, int ref) Hashtbl.t;  (* bucket index -> count, v > 0 *)
  mutable underflow : int;  (* v <= 0 or NaN *)
  mutable n : int;
  mutable total : float;
  mutable lo : float;
  mutable hi : float;
}

let create ?(gamma = sqrt (sqrt 2.0)) () =
  if not (gamma > 1.0) then invalid_arg "Histogram.create: gamma must be > 1";
  {
    gamma;
    log_gamma = log gamma;
    tbl = Hashtbl.create 64;
    underflow = 0;
    n = 0;
    total = 0.0;
    lo = infinity;
    hi = neg_infinity;
  }

let index t v = int_of_float (Float.floor (log v /. t.log_gamma))

let bucket_lo t i = t.gamma ** float_of_int i
let bucket_hi t i = t.gamma ** float_of_int (i + 1)

let add t v =
  t.n <- t.n + 1;
  if Float.is_nan v then t.underflow <- t.underflow + 1
  else begin
    t.total <- t.total +. v;
    if v < t.lo then t.lo <- v;
    if v > t.hi then t.hi <- v;
    if v <= 0.0 then t.underflow <- t.underflow + 1
    else begin
      let i = index t v in
      (* guard against floor/pow rounding at bucket edges *)
      let i = if v < bucket_lo t i then i - 1 else i in
      let i = if v >= bucket_hi t i then i + 1 else i in
      match Hashtbl.find_opt t.tbl i with
      | Some r -> incr r
      | None -> Hashtbl.add t.tbl i (ref 1)
    end
  end

let count t = t.n
let sum t = t.total
let mean t = if t.n = 0 then 0.0 else t.total /. float_of_int t.n

(* [lo > hi] means no sample ever updated the bounds — the histogram is
   empty or holds only NaN samples (which skip the bounds update). *)
let min_value t = if t.n = 0 || t.lo > t.hi then 0.0 else t.lo
let max_value t = if t.n = 0 || t.lo > t.hi then 0.0 else t.hi

let sorted_indices t =
  Hashtbl.fold (fun i r acc -> (i, !r) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    (* nearest-rank: the k-th smallest sample, k in [1, n] *)
    let k =
      max 1 (int_of_float (Float.ceil (Float.of_int t.n *. p /. 100.0)))
    in
    let k = min k t.n in
    if k <= t.underflow then 0.0
    else begin
      let rest = ref (k - t.underflow) in
      let result = ref (max_value t) in
      (try
         List.iter
           (fun (i, c) ->
             if !rest <= c then begin
               (* geometric midpoint of the bucket, clamped to observed range *)
               let v = sqrt (bucket_lo t i *. bucket_hi t i) in
               result := Float.max (min_value t) (Float.min (max_value t) v);
               raise Exit
             end
             else rest := !rest - c)
           (sorted_indices t)
       with Exit -> ());
      !result
    end
  end

let buckets t =
  let pos =
    List.map (fun (i, c) -> (bucket_lo t i, bucket_hi t i, c)) (sorted_indices t)
  in
  if t.underflow > 0 then (0.0, 0.0, t.underflow) :: pos else pos

let reset t =
  Hashtbl.reset t.tbl;
  t.underflow <- 0;
  t.n <- 0;
  t.total <- 0.0;
  t.lo <- infinity;
  t.hi <- neg_infinity

let merge_into ~dst src =
  if dst.gamma <> src.gamma then
    invalid_arg "Histogram.merge_into: gamma mismatch";
  Hashtbl.iter
    (fun i r ->
      match Hashtbl.find_opt dst.tbl i with
      | Some d -> d := !d + !r
      | None -> Hashtbl.add dst.tbl i (ref !r))
    src.tbl;
  dst.underflow <- dst.underflow + src.underflow;
  dst.n <- dst.n + src.n;
  dst.total <- dst.total +. src.total;
  if src.n > 0 then begin
    if src.lo < dst.lo then dst.lo <- src.lo;
    if src.hi > dst.hi then dst.hi <- src.hi
  end

let merge = function
  | [] -> create ()
  | first :: _ as hs ->
    let dst = create ~gamma:first.gamma () in
    List.iter (fun h -> merge_into ~dst h) hs;
    dst

type summary = {
  n : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summary t =
  {
    n = count t;
    sum = sum t;
    mean = mean t;
    min = min_value t;
    max = max_value t;
    p50 = percentile t 50.0;
    p90 = percentile t 90.0;
    p99 = percentile t 99.0;
  }

let summary_fields s =
  [
    ("count", Json.Int s.n);
    ("sum", Json.Float s.sum);
    ("mean", Json.Float s.mean);
    ("min", Json.Float s.min);
    ("max", Json.Float s.max);
    ("p50", Json.Float s.p50);
    ("p90", Json.Float s.p90);
    ("p99", Json.Float s.p99);
  ]
