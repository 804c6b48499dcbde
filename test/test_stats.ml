(* Tests for descriptive statistics. *)

module S = Numerics.Stats

let close ?(tol = 1e-10) name expected got =
  Alcotest.(check (float tol)) name expected got

let test_mean_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  close "mean" 5.0 (S.mean xs);
  close "population variance" 4.0 (S.variance ~ddof:0 xs);
  close "sample variance" (32.0 /. 7.0) (S.variance xs);
  close "std" (sqrt (32.0 /. 7.0)) (S.std xs)

let test_variance_errors () =
  Alcotest.check_raises "single sample, ddof=1"
    (Invalid_argument "Stats.variance: not enough samples") (fun () ->
      ignore (S.variance [| 1.0 |]))

let test_quantiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  close "q0 = min" 1.0 (S.quantile xs 0.0);
  close "q1 = max" 4.0 (S.quantile xs 1.0);
  close "median interpolates" 2.5 (S.quantile xs 0.5);
  close "q0.25 (type 7)" 1.75 (S.quantile xs 0.25);
  close "single element" 7.0 (S.quantile [| 7.0 |] 0.3);
  (* Order independence: quantile sorts internally. *)
  close "unsorted input" 2.5 (S.quantile [| 4.0; 1.0; 3.0; 2.0 |] 0.5);
  close "median helper" 2.5 (S.median xs)

let test_nearest_rank () =
  let xs = [| 3.0; 1.0; 2.0; 5.0; 4.0 |] in
  (* rank = ceil(0.5 * 5) = 3 -> third smallest. *)
  close "median of five" 3.0 (S.quantile_nearest_rank xs 0.5);
  close "p = 0 clamps to the minimum" 1.0 (S.quantile_nearest_rank xs 0.0);
  close "p = 1 is the maximum" 5.0 (S.quantile_nearest_rank xs 1.0);
  (* The p95-stretch regression shape: 20 observations 1..20, rank =
     ceil(0.95 * 20) = 19, so exactly the 19th order statistic — no
     interpolation toward 20. *)
  let ys = Array.init 20 (fun i -> float_of_int (i + 1)) in
  close "p95 of 1..20 is the 19th value" 19.0
    (S.quantile_nearest_rank_sorted ys 0.95);
  close "interpolated p95 differs" 19.05 (S.quantiles_sorted ys 0.95);
  (* Nearest-rank always returns an observed value, even on a gappy
     two-point sample where type 7 would invent one. *)
  close "no invented values" 100.0
    (S.quantile_nearest_rank [| 0.0; 100.0 |] 0.95);
  close "single element" 7.0 (S.quantile_nearest_rank [| 7.0 |] 0.3);
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Stats.quantile_nearest_rank: empty sample") (fun () ->
      ignore (S.quantile_nearest_rank [||] 0.5));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.quantile_nearest_rank: p must be in [0, 1]")
    (fun () -> ignore (S.quantile_nearest_rank xs 1.5))

let test_min_max () =
  let mn, mx = S.min_max [| 3.0; -1.0; 7.0; 0.0 |] in
  close "min" (-1.0) mn;
  close "max" 7.0 mx

let test_histogram () =
  let xs = [| 0.0; 0.1; 0.2; 0.9; 1.0 |] in
  let h = S.histogram ~bins:2 xs in
  Alcotest.(check int) "bin count" 2 (Array.length h.S.counts);
  Alcotest.(check int) "total count preserved" 5
    (Array.fold_left ( + ) 0 h.S.counts);
  Alcotest.(check int) "first bin holds the low cluster" 3 h.S.counts.(0);
  (* Value equal to the max lands in the last bin. *)
  Alcotest.(check int) "last bin holds the high cluster" 2 h.S.counts.(1)

let test_online () =
  let o = S.Online.create () in
  List.iter (S.Online.push o) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (S.Online.count o);
  close "online mean" 5.0 (S.Online.mean o);
  close "online variance" (32.0 /. 7.0) (S.Online.variance o);
  close "stderr" (sqrt (32.0 /. 7.0 /. 8.0)) (S.Online.stderr o)

let prop_online_matches_batch =
  QCheck.Test.make ~count:300 ~name:"online mean/variance match batch"
    QCheck.(list_of_size Gen.(int_range 2 200) (float_range (-1e3) 1e3))
    (fun xs ->
      let a = Array.of_list xs in
      let o = S.Online.create () in
      Array.iter (S.Online.push o) a;
      Float.abs (S.Online.mean o -. S.mean a) <= 1e-8 *. (1.0 +. Float.abs (S.mean a))
      && Float.abs (S.Online.variance o -. S.variance a)
         <= 1e-6 *. (1.0 +. S.variance a))

let prop_quantile_monotone =
  QCheck.Test.make ~count:300 ~name:"quantile is monotone in p"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 100) (float_range (-100.0) 100.0))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (xs, (p1, p2)) ->
      let a = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      S.quantile a lo <= S.quantile a hi +. 1e-12)

let prop_quantile_bounds =
  QCheck.Test.make ~count:300 ~name:"quantile stays within [min, max]"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 100) (float_range (-100.0) 100.0))
        (float_range 0.0 1.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let mn, mx = S.min_max a in
      let q = S.quantile a p in
      q >= mn -. 1e-12 && q <= mx +. 1e-12)

(* [S.sort] against the polymorphic [Array.sort Float.compare] it
   replaces. Elements are drawn from a pool with nan (both signs),
   +-inf, +-0 and a handful of repeated values, at the sizes either
   side of the insertion-sort cutoff. Equal-comparing elements may
   differ in bits (-0 and 0, the two nans) and neither sort fixes their
   order, so the check is: position by position equal under
   [Float.compare], and the same multiset of bit patterns. *)
let sort_sizes = [ 0; 1; 2; 31; 32; 33; 1000 ]

let special_float =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ nan; -.nan; infinity; neg_infinity; 0.0; -0.0 ]);
        (3, map float_of_int (int_range (-5) 5));
        (3, float_range (-1e3) 1e3);
      ])

let prop_sort_matches_array_sort =
  QCheck.Test.make ~count:300 ~name:"sort = Array.sort Float.compare"
    (QCheck.make
       ~print:QCheck.Print.(array float)
       QCheck.Gen.(oneofl sort_sizes >>= fun n -> array_size (return n) special_float))
    (fun xs ->
      let ours = Array.copy xs and ref_ = Array.copy xs in
      S.sort ours;
      Array.sort Float.compare ref_;
      let bits a =
        let b = Array.map Int64.bits_of_float a in
        Array.sort Int64.compare b;
        b
      in
      Array.for_all2 (fun a b -> Float.compare a b = 0) ours ref_
      && bits ours = bits xs)

let test_sort_each_size () =
  (* Every size, deterministically, including an already-sorted and a
     reversed input. *)
  List.iter
    (fun n ->
      List.iter
        (fun xs ->
          let ours = Array.copy xs and ref_ = Array.copy xs in
          S.sort ours;
          Array.sort Float.compare ref_;
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "n = %d" n) ref_ ours)
        [
          Array.init n (fun i -> float_of_int i);
          Array.init n (fun i -> float_of_int (n - i));
          Array.init n (fun i -> float_of_int ((i * 7919) mod 13));
        ])
    sort_sizes

let () =
  Alcotest.run "stats"
    [
      ( "unit",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "variance errors" `Quick test_variance_errors;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "nearest-rank quantile" `Quick test_nearest_rank;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "online" `Quick test_online;
          Alcotest.test_case "sort each size" `Quick test_sort_each_size;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_online_matches_batch;
          QCheck_alcotest.to_alcotest prop_quantile_monotone;
          QCheck_alcotest.to_alcotest prop_quantile_bounds;
          QCheck_alcotest.to_alcotest prop_sort_matches_array_sort;
        ] );
    ]
