(* Tests for finite discrete distributions. *)

module D = Distributions.Discrete

let close ?(tol = 1e-12) name expected got =
  Alcotest.(check (float tol)) name expected got

let simple = D.make [| (1.0, 0.2); (2.0, 0.3); (3.0, 0.5) |]

let test_make_sorts_and_merges () =
  let d = D.make [| (3.0, 0.1); (1.0, 0.2); (3.0, 0.3); (2.0, 0.4) |] in
  Alcotest.(check int) "merged size" 3 (D.size d);
  Alcotest.(check (array (float 1e-12))) "sorted values" [| 1.0; 2.0; 3.0 |]
    d.D.values;
  Alcotest.(check (array (float 1e-12))) "merged probs" [| 0.2; 0.4; 0.4 |]
    d.D.probs

let test_make_drops_zero () =
  let d = D.make [| (1.0, 0.5); (2.0, 0.0); (3.0, 0.5) |] in
  Alcotest.(check int) "zero-prob point dropped" 2 (D.size d)

let test_make_errors () =
  Alcotest.(check bool) "negative prob rejected" true
    (try ignore (D.make [| (1.0, -0.1) |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty rejected" true
    (try ignore (D.make [| (1.0, 0.0) |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "mass > 1 rejected" true
    (try ignore (D.make [| (1.0, 0.6); (2.0, 0.6) |]); false
     with Invalid_argument _ -> true)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_make_rejects_non_finite () =
  List.iter
    (fun (name, pairs) ->
      Alcotest.(check bool) name true (raises_invalid (fun () -> D.make pairs)))
    [
      ("NaN value", [| (1.0, 0.5); (Float.nan, 0.5) |]);
      ("+inf value", [| (1.0, 0.5); (Float.infinity, 0.5) |]);
      ("-inf value", [| (Float.neg_infinity, 0.5); (1.0, 0.5) |]);
      (* A NaN probability used to be dropped silently: neither
         [p < 0] nor [p > 0] holds. *)
      ("NaN probability", [| (1.0, 0.5); (2.0, Float.nan) |]);
      ("+inf probability", [| (1.0, Float.infinity) |]);
      ("-inf probability", [| (1.0, 0.5); (2.0, Float.neg_infinity) |]);
      ("non-finite value at zero probability", [| (1.0, 1.0); (Float.nan, 0.0) |]);
    ]

let test_make_order_independent () =
  (* The presorted fast path and the sorting path build the same
     record, bit for bit — duplicates included, which merge in one
     canonical order whatever the input order. *)
  let bits = Array.map Int64.bits_of_float in
  let same name (a : D.t) (b : D.t) =
    Alcotest.(check (array int64)) (name ^ " values") (bits a.D.values) (bits b.D.values);
    Alcotest.(check (array int64)) (name ^ " probs") (bits a.D.probs) (bits b.D.probs)
  in
  let rng = Randomness.Rng.create ~seed:4242 () in
  let shuffle a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = Randomness.Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let distinct = Array.init 200 (fun i -> (0.5 +. float_of_int i, 1.0 /. 300.0)) in
  let reference = D.make distinct in
  for _ = 1 to 10 do
    same "distinct" reference (D.make (shuffle distinct))
  done;
  (* 0.3 +. 0.2 +. 0.1 <> 0.1 +. 0.2 +. 0.3: the merged mass depends
     on the addition order. *)
  let dups =
    [| (1.0, 0.1); (2.0, 0.3); (2.0, 0.2); (2.0, 0.1); (3.0, 0.2); (2.0, 0.0) |]
  in
  let reference = D.make dups in
  Alcotest.(check int) "merged size" 3 (D.size reference);
  for _ = 1 to 20 do
    same "duplicates" reference (D.make (shuffle dups))
  done;
  let sorted = Array.copy dups in
  Array.sort compare sorted;
  same "presorted duplicates" reference (D.make sorted);
  (* Sorted by value alone, duplicates in another order: not strictly
     increasing, so still sorted. *)
  Array.sort (fun (v1, p1) (v2, p2) -> compare (v1, -.p1) (v2, -.p2)) sorted;
  same "value-sorted duplicates" reference (D.make sorted)

let test_total_mass_and_normalize () =
  let d = D.make [| (1.0, 0.3); (2.0, 0.3) |] in
  close "partial mass" 0.6 (D.total_mass d);
  let n = D.normalize d in
  close "normalized mass" 1.0 (D.total_mass n);
  close "proportions preserved" 0.5 n.D.probs.(0)

let test_moments () =
  close "mean" 2.3 (D.mean simple);
  (* E[X^2] = 0.2 + 1.2 + 4.5 = 5.9; var = 5.9 - 5.29 = 0.61. *)
  close "variance" 0.61 (D.variance simple);
  (* Moments are normalization-invariant. *)
  let partial = D.make [| (1.0, 0.1); (2.0, 0.15); (3.0, 0.25) |] in
  close "mean under partial mass" 2.3 (D.mean partial)

let test_cdf_quantile () =
  close "cdf below" 0.0 (D.cdf simple 0.5);
  close "cdf at 1" 0.2 (D.cdf simple 1.0);
  close "cdf between" 0.5 (D.cdf simple 2.5);
  close "cdf at top" 1.0 (D.cdf simple 3.0);
  close "quantile 0" 1.0 (D.quantile simple 0.0);
  close "quantile 0.2" 1.0 (D.quantile simple 0.2);
  close "quantile 0.21" 2.0 (D.quantile simple 0.21);
  close "quantile 1" 3.0 (D.quantile simple 1.0)

let test_sample_distribution () =
  let rng = Randomness.Rng.create ~seed:17 () in
  let counts = Hashtbl.create 3 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = D.sample simple rng in
    Hashtbl.replace counts v (1 + try Hashtbl.find counts v with Not_found -> 0)
  done;
  let freq v = float_of_int (Hashtbl.find counts v) /. float_of_int n in
  Alcotest.(check (float 0.01)) "P(1)" 0.2 (freq 1.0);
  Alcotest.(check (float 0.01)) "P(2)" 0.3 (freq 2.0);
  Alcotest.(check (float 0.01)) "P(3)" 0.5 (freq 3.0)

let test_of_samples () =
  let d = D.of_samples [| 1.0; 1.0; 2.0; 3.0; 3.0; 3.0 |] in
  Alcotest.(check int) "distinct values" 3 (D.size d);
  close "frequency of 3" 0.5 d.D.probs.(2)

let test_to_dist () =
  let dd = D.to_dist simple in
  close "to_dist mean" 2.3 dd.Distributions.Dist.mean;
  close "to_dist cdf" 0.5 (dd.Distributions.Dist.cdf 2.0);
  close "to_dist cond mean above 1" (((2.0 *. 0.3) +. (3.0 *. 0.5)) /. 0.8)
    (dd.Distributions.Dist.conditional_mean 1.0);
  close "to_dist cond mean above all" 3.0
    (dd.Distributions.Dist.conditional_mean 3.0)

let prop_quantile_cdf_consistent =
  QCheck.Test.make ~count:300 ~name:"quantile (cdf v) recovers v on support"
    QCheck.(list_of_size Gen.(int_range 1 20)
              (pair (float_range 0.0 100.0) (float_range 0.01 1.0)))
    (fun pairs ->
      let total = List.fold_left (fun a (_, p) -> a +. p) 0.0 pairs in
      let pairs = List.map (fun (v, p) -> (v, p /. total)) pairs in
      let d = D.make (Array.of_list pairs) in
      Array.for_all
        (fun v -> D.quantile d (D.cdf d v) = v)
        d.D.values)

let prop_mean_within_range =
  QCheck.Test.make ~count:300 ~name:"mean lies within [min, max] of support"
    QCheck.(list_of_size Gen.(int_range 1 30)
              (pair (float_range 0.0 50.0) (float_range 0.01 1.0)))
    (fun pairs ->
      let total = 2.0 *. List.fold_left (fun a (_, p) -> a +. p) 0.0 pairs in
      let pairs = List.map (fun (v, p) -> (v, p /. total)) pairs in
      let d = D.make (Array.of_list pairs) in
      let n = D.size d in
      let m = D.mean d in
      m >= d.D.values.(0) -. 1e-9 && m <= d.D.values.(n - 1) +. 1e-9)

let () =
  Alcotest.run "discrete"
    [
      ( "unit",
        [
          Alcotest.test_case "make sorts/merges" `Quick test_make_sorts_and_merges;
          Alcotest.test_case "make drops zero" `Quick test_make_drops_zero;
          Alcotest.test_case "make errors" `Quick test_make_errors;
          Alcotest.test_case "mass/normalize" `Quick test_total_mass_and_normalize;
          Alcotest.test_case "moments" `Quick test_moments;
          Alcotest.test_case "cdf/quantile" `Quick test_cdf_quantile;
          Alcotest.test_case "sampling" `Quick test_sample_distribution;
          Alcotest.test_case "of_samples" `Quick test_of_samples;
          Alcotest.test_case "rejects non-finite" `Quick
            test_make_rejects_non_finite;
          Alcotest.test_case "order independent" `Quick
            test_make_order_independent;
          Alcotest.test_case "to_dist" `Quick test_to_dist;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_quantile_cdf_consistent;
          QCheck_alcotest.to_alcotest prop_mean_within_range;
        ] );
    ]
