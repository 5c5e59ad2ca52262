(* Unit tests for the benchmark's order statistics and verdict rule.
   Reference quartiles are Python's statistics.quantiles(xs, n=4). *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-12
let close_list a b = List.length a = List.length b && List.for_all2 close a b

let () =
  let q xs = Stats.quantiles ~n:4 xs in
  check "quartiles 1..10" (close_list (q (List.init 10 (fun i -> float_of_int (i + 1)))) [ 2.75; 5.5; 8.25 ]);
  check "quartiles of 3" (close_list (q [ 3.0; 1.0; 2.0 ]) [ 1.0; 2.0; 3.0 ]);
  check "quartiles of 2 extrapolate" (close_list (q [ 5.0; 1.0 ]) [ 0.0; 3.0; 6.0 ]);
  check "quartiles unsorted" (close_list (q [ 2.5; 9.0; 4.0; 7.5; 1.0; 3.25 ]) [ 2.125; 3.625; 7.875 ]);
  check "quartiles of 1" (close_list (q [ 4.0 ]) [ 4.0; 4.0; 4.0 ]);
  check "median odd" (close (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  check "median even" (close (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 ] in
  check "summary" (close s.Stats.median 5.5 && close s.Stats.q1 2.75 && close s.Stats.q3 8.25 && s.Stats.n = 10);
  check "relative spread" (close (Stats.rel_spread s) 1.0);
  let v better parent change = Stats.verdict ~better ~bound:0.10 ~parent ~change in
  let parent = [ 100.0; 101.0; 99.0; 100.5; 99.5 ] in
  check "unchanged" (v Stats.Higher parent [ 100.2; 99.8; 100.4; 99.6; 100.0 ] = Stats.Unchanged);
  check "improved" (v Stats.Higher parent [ 120.0; 121.0; 119.0; 120.5; 119.5 ] = Stats.Improved);
  check "worse, higher is better" (v Stats.Higher parent [ 80.0; 81.0; 79.0; 80.5; 79.5 ] = Stats.Worse);
  check "worse, lower is better" (v Stats.Lower parent [ 120.0; 121.0; 119.0; 120.5; 119.5 ] = Stats.Worse);
  check "within bound is not worse" (v Stats.Lower parent [ 105.0; 106.0; 104.0; 105.5; 104.5 ] <> Stats.Worse);
  check "noisy change is unresolved"
    (v Stats.Higher parent [ 70.0; 130.0; 100.0; 80.0; 125.0 ] = Stats.Unresolved);
  check "noisy but dominating is improved"
    (v Stats.Higher [ 100.0; 60.0; 100.0; 140.0; 100.0 ] [ 300.0; 200.0; 400.0; 250.0; 350.0 ]
    = Stats.Improved);
  if !failures > 0 then exit 1;
  print_endline "bench/perf stats: all checks passed"
