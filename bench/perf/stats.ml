(* Order statistics and the regression verdict used by the benchmark.

   Quartiles follow Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method), so a spread computed here matches one
   computed from the same samples by any script reading the results. *)

let sorted xs = List.sort Float.compare xs

(* [quantiles ~n xs]: the [n - 1] cut points dividing [xs] into [n]
   groups.  One sample cuts everywhere at itself. *)
let quantiles ~n xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quantiles: no samples";
  if ld = 1 then List.init (n - 1) (fun _ -> a.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

let median xs =
  let a = Array.of_list (sorted xs) in
  let l = Array.length a in
  if l = 0 then invalid_arg "Stats.median: no samples";
  if l mod 2 = 1 then a.(l / 2) else (a.((l / 2) - 1) +. a.(l / 2)) /. 2.0

type summary = { median : float; q1 : float; q3 : float; n : int }

let summarize xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] -> { median = median xs; q1; q3; n = List.length xs }
  | _ -> assert false

(* Interquartile distance as a share of the median (0 for a zero
   median, which only counts can have). *)
let rel_spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

type better = Lower | Higher
type verdict = Improved | Worse | Unchanged | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Parent [p] against change [c] for one metric whose median may worsen
   by at most [bound] (a share of the parent's median):
   - a worsening past the bound is [Worse];
   - a spread wider than the bound on either side is [Unresolved],
     unless every change sample beats every parent sample;
   - a gain larger than the parent's own interquartile distance is
     [Improved]; anything else is [Unchanged]. *)
let verdict ~better ~bound ~parent ~change =
  let p = summarize parent and c = summarize change in
  let gain =
    match better with Lower -> p.median -. c.median | Higher -> c.median -. p.median
  in
  let base = Float.abs p.median in
  let dominates =
    match better with
    | Lower -> List.fold_left Float.max neg_infinity change < List.fold_left Float.min infinity parent
    | Higher -> List.fold_left Float.min infinity change > List.fold_left Float.max neg_infinity parent
  in
  if -.gain > bound *. base then Worse
  else if (rel_spread p > bound || rel_spread c > bound) && not dominates then Unresolved
  else if gain > p.q3 -. p.q1 && gain > 0.0 then Improved
  else Unchanged
