(* Tests for the Theorem 5 dynamic program, including optimality
   verification against exhaustive search on small instances and a
   differential check of the linear-time hull DP against the quadratic
   scan it replaced. *)

module Dp = Stochastic_core.Dp
module C = Stochastic_core.Cost_model
module D = Distributions.Discrete

let rel_close ?(tol = 1e-9) name expected got =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (got -. expected) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* Exhaustive optimum: enumerate every increasing subsequence of the
   support that ends at v_n (any valid reservation sequence for a
   discrete law is one of these) and take the cheapest. *)
let exhaustive_optimum m d =
  let d = D.normalize d in
  let v = d.D.values in
  let n = Array.length v in
  let best = ref infinity in
  (* Subsets of indices {0..n-2}; index n-1 always included last. *)
  let rec go idx acc =
    if idx = n - 1 then begin
      let seq = Array.of_list (List.rev (v.(n - 1) :: acc)) in
      let c = Dp.expected_cost_brute m d seq in
      if c < !best then best := c
    end
    else begin
      go (idx + 1) acc;
      go (idx + 1) (v.(idx) :: acc)
    end
  in
  go 0 [];
  !best

(* The quadratic Theorem 5 DP: for every state, scan every choice j
   and keep the first strict minimum. [Dp.solve] must reproduce it bit
   for bit. *)
let oracle m d =
  let d = D.normalize d in
  let v = d.D.values and f = d.D.probs in
  let n = Array.length v in
  let open C in
  let s = Array.make (n + 1) 0.0 in
  let mv = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    s.(i) <- s.(i + 1) +. f.(i);
    mv.(i) <- mv.(i + 1) +. (f.(i) *. v.(i))
  done;
  let w = Array.make (n + 1) 0.0 in
  let choice = Array.make n 0 in
  for i = n - 1 downto 0 do
    let best = ref infinity and best_j = ref i in
    for j = i to n - 1 do
      let cand =
        (((m.alpha *. v.(j)) +. m.gamma) *. s.(i))
        +. (m.beta *. (mv.(i) -. mv.(j + 1)))
        +. (m.beta *. v.(j) *. s.(j + 1))
        +. w.(j + 1)
      in
      if cand < !best then begin
        best := cand;
        best_j := j
      end
    done;
    w.(i) <- !best;
    choice.(i) <- !best_j
  done;
  let rec collect i acc =
    if i >= n then List.rev acc
    else collect (choice.(i) + 1) (v.(choice.(i)) :: acc)
  in
  { Dp.reservations = Array.of_list (collect 0 []); expected_cost = w.(0) }

let bits = Int64.bits_of_float

let same_solution (a : Dp.solution) (b : Dp.solution) =
  Array.length a.Dp.reservations = Array.length b.Dp.reservations
  && Array.for_all2
       (fun x y -> Int64.equal (bits x) (bits y))
       a.Dp.reservations b.Dp.reservations
  && Int64.equal (bits a.Dp.expected_cost) (bits b.Dp.expected_cost)

let show_solution (s : Dp.solution) =
  Printf.sprintf "cost %h, %d reservations [%s]" s.Dp.expected_cost
    (Array.length s.Dp.reservations)
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%h") s.Dp.reservations)))

let check_oracle name m d =
  let expected = oracle m d and got = Dp.solve m d in
  if not (same_solution expected got) then
    Alcotest.failf "%s: oracle %s, hull %s" name (show_solution expected)
      (show_solution got)

let random_discrete rng n =
  let values =
    Array.init n (fun _ -> Randomness.Rng.uniform rng 0.1 50.0)
  in
  let probs = Array.init n (fun _ -> Randomness.Rng.uniform rng 0.05 1.0) in
  let total = Array.fold_left ( +. ) 0.0 probs in
  D.make (Array.init n (fun i -> (values.(i), probs.(i) /. total)))

let test_single_point () =
  let d = D.make [| (5.0, 1.0) |] in
  let m = C.make ~alpha:1.0 ~beta:0.5 ~gamma:0.2 () in
  let sol = Dp.solve m d in
  Alcotest.(check (array (float 1e-12))) "sequence = (v)" [| 5.0 |]
    sol.Dp.reservations;
  (* E = alpha v + beta v + gamma. *)
  rel_close "cost" (5.0 +. 2.5 +. 0.2) sol.Dp.expected_cost

let test_two_point_tradeoff () =
  (* Two values 1 and 10 with p = 0.9 / 0.1 under RESERVATIONONLY:
     reserving (1, 10) costs 1 + 0.1 * 10 = 2; reserving (10) costs
     10. DP must pick the former. With p = 0.05 / 0.95 the single big
     reservation wins (10 vs 1 + 9.5). *)
  let m = C.reservation_only in
  let d1 = D.make [| (1.0, 0.9); (10.0, 0.1) |] in
  let sol1 = Dp.solve m d1 in
  Alcotest.(check (array (float 1e-12))) "two-step" [| 1.0; 10.0 |]
    sol1.Dp.reservations;
  rel_close "two-step cost" 2.0 sol1.Dp.expected_cost;
  let d2 = D.make [| (1.0, 0.05); (10.0, 0.95) |] in
  let sol2 = Dp.solve m d2 in
  Alcotest.(check (array (float 1e-12))) "one-step" [| 10.0 |]
    sol2.Dp.reservations;
  rel_close "one-step cost" 10.0 sol2.Dp.expected_cost

let test_hand_computed_three_points () =
  (* v = (2, 4, 8), f = (0.5, 0.25, 0.25), RESERVATIONONLY. Candidate
     policies (must end at 8):
       (8):        8
       (2, 8):     2 + 0.5 * 8            = 6
       (4, 8):     4 + 0.25 * 8           = 6
       (2, 4, 8):  2 + 0.5*4 + 0.25*8     = 6
     Optimum = 6. *)
  let d = D.make [| (2.0, 0.5); (4.0, 0.25); (8.0, 0.25) |] in
  let sol = Dp.solve C.reservation_only d in
  rel_close "three-point optimum" 6.0 sol.Dp.expected_cost;
  (* Every tie goes to the smallest j: (2, 4, 8). *)
  Alcotest.(check (array (float 0.0))) "smallest-j tie rule" [| 2.0; 4.0; 8.0 |]
    sol.Dp.reservations;
  check_oracle "three-point ties" C.reservation_only d

let test_matches_exhaustive_small () =
  let rng = Randomness.Rng.create ~seed:2718 () in
  for trial = 1 to 25 do
    let n = 2 + Randomness.Rng.int rng 9 in
    let d = random_discrete rng n in
    let m =
      C.make
        ~alpha:(Randomness.Rng.uniform rng 0.5 2.0)
        ~beta:(Randomness.Rng.uniform rng 0.0 1.5)
        ~gamma:(Randomness.Rng.uniform rng 0.0 1.0)
        ()
    in
    let dp = (Dp.solve m d).Dp.expected_cost in
    let ex = exhaustive_optimum m d in
    if Float.abs (dp -. ex) > 1e-9 *. (1.0 +. ex) then
      Alcotest.failf "trial %d: DP %.12g vs exhaustive %.12g" trial dp ex
  done

let test_dp_cost_equals_sequence_cost () =
  (* The DP's reported expected cost must equal the direct evaluation
     of its own output sequence. *)
  let rng = Randomness.Rng.create ~seed:31415 () in
  for _ = 1 to 20 do
    let d = random_discrete rng (3 + Randomness.Rng.int rng 20) in
    let m = C.make ~alpha:1.0 ~beta:0.8 ~gamma:0.3 () in
    let sol = Dp.solve m d in
    let direct = Dp.expected_cost_brute m d sol.Dp.reservations in
    rel_close "reported = replayed" direct sol.Dp.expected_cost
  done

let test_normalization_invariance () =
  (* Scaling all probabilities by a constant (truncated distributions)
     must not change the solution. *)
  let pairs = [| (1.0, 0.4); (3.0, 0.4); (9.0, 0.2) |] in
  let scaled = Array.map (fun (v, p) -> (v, p *. 0.5)) pairs in
  let m = C.make ~alpha:1.0 ~beta:0.3 ~gamma:0.1 () in
  let s1 = Dp.solve m (D.make pairs) in
  let s2 = Dp.solve m (D.make scaled) in
  Alcotest.(check (array (float 1e-12))) "same sequence" s1.Dp.reservations
    s2.Dp.reservations;
  rel_close "same cost" s1.Dp.expected_cost s2.Dp.expected_cost

let test_sequence_ends_at_vn () =
  let rng = Randomness.Rng.create ~seed:99 () in
  for _ = 1 to 20 do
    let d = random_discrete rng 12 in
    let sol = Dp.solve C.reservation_only d in
    let k = Array.length sol.Dp.reservations in
    let n = D.size d in
    rel_close "last reservation = v_n" d.D.values.(n - 1)
      sol.Dp.reservations.(k - 1)
  done

let test_uniform_discretized_matches_theorem4 () =
  (* Discretizing Uniform(10, 20) and solving optimally must recover
     the single reservation (b = 20) for RESERVATIONONLY. *)
  let d = Distributions.Uniform_dist.default in
  let disc =
    Stochastic_core.Discretize.run Stochastic_core.Discretize.Equal_time
      ~n:100 d
  in
  let sol = Dp.solve C.reservation_only disc in
  Alcotest.(check (array (float 1e-9))) "single (20)" [| 20.0 |]
    sol.Dp.reservations

let test_sequence_for_extends_unbounded () =
  let d = Distributions.Exponential.default in
  let disc =
    Stochastic_core.Discretize.run Stochastic_core.Discretize.Equal_time
      ~n:100 d
  in
  let seq = Dp.sequence_for C.reservation_only d disc in
  (* Must cover samples beyond the truncation point by doubling. *)
  let _, cost =
    Stochastic_core.Sequence.cost_of_run C.reservation_only seq 40.0
  in
  Alcotest.(check bool) "covers beyond truncation" true (cost > 40.0)

let test_expected_cost_brute_validation () =
  let d = D.make [| (1.0, 0.5); (2.0, 0.5) |] in
  let m = C.reservation_only in
  Alcotest.(check bool) "non-increasing rejected" true
    (try ignore (Dp.expected_cost_brute m d [| 2.0; 1.5 |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "uncovering sequence rejected" true
    (try ignore (Dp.expected_cost_brute m d [| 1.5 |]); false
     with Invalid_argument _ -> true)

let prop_dp_never_worse_than_single_shot =
  QCheck.Test.make ~count:100 ~name:"DP <= reserve v_n directly"
    QCheck.(pair small_int (int_range 2 15))
    (fun (seed, n) ->
      let rng = Randomness.Rng.create ~seed () in
      let d = random_discrete rng n in
      let m = C.make ~alpha:1.0 ~beta:0.5 ~gamma:0.1 () in
      let dp = (Dp.solve m d).Dp.expected_cost in
      let single =
        Dp.expected_cost_brute m d [| d.D.values.(D.size d - 1) |]
      in
      dp <= single +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Linear-time hull DP against the quadratic scan: bit for bit, or to  *)
(* rounding where choices tie within an ulp.                           *)

(* Dyadic laws: small-integer values and probabilities c_i / 2^k
   summing to exactly 1, under dyadic cost coefficients, make every
   DP quantity exact — so policies of equal cost tie exactly and the
   tie rule is exercised. *)
let dyadic_law_gen n =
  let open QCheck.Gen in
  let rec pow k = if 1 lsl k >= 4 * n then k else pow (k + 1) in
  let units = 1 lsl pow 0 in
  let* values = shuffle_l (List.init (4 * n) (fun i -> float_of_int (i + 1))) in
  let* extra = list_repeat (units - n) (int_bound (n - 1)) in
  let counts = Array.make n 1 in
  List.iter (fun i -> counts.(i) <- counts.(i) + 1) extra;
  let values = List.sort Float.compare (List.filteri (fun i _ -> i < n) values) in
  return
    (List.mapi
       (fun i v -> (v, float_of_int counts.(i) /. float_of_int units))
       values)

let continuous_law_gen n =
  let open QCheck.Gen in
  let* values = list_repeat n (float_range 0.1 50.0) in
  let* weights = list_repeat n (float_range 0.01 1.0) in
  let total = List.fold_left ( +. ) 0.0 weights in
  return (List.map2 (fun v p -> (v, p /. total)) values weights)

let coeff_gen ~dyadic ~positive =
  let open QCheck.Gen in
  let exact = oneofl [ 0.25; 0.5; 1.0; 2.0; 3.0 ] in
  let any = if dyadic then exact else oneof [ exact; float_range 1e-3 3.0 ] in
  if positive then any else oneof [ return 0.0; any ]

let case_gen =
  let open QCheck.Gen in
  let* n = int_range 1 300 in
  let* dyadic = bool in
  let* law = if dyadic then dyadic_law_gen n else continuous_law_gen n in
  let* alpha = coeff_gen ~dyadic ~positive:true in
  let* beta = coeff_gen ~dyadic ~positive:false in
  let* gamma = coeff_gen ~dyadic ~positive:false in
  return (law, (alpha, beta, gamma))

let print_case (law, (alpha, beta, gamma)) =
  Printf.sprintf "alpha=%h beta=%h gamma=%h law=[%s]" alpha beta gamma
    (String.concat "; " (List.map (fun (v, p) -> Printf.sprintf "(%h, %h)" v p) law))

let prop_hull_matches_oracle =
  QCheck.Test.make ~count:2000 ~name:"hull DP = quadratic scan, bit for bit"
    (QCheck.make ~print:print_case case_gen)
    (fun (law, (alpha, beta, gamma)) ->
      let m = C.make ~alpha ~beta ~gamma () in
      let d = D.make (Array.of_list law) in
      same_solution (oracle m d) (Dp.solve m d))

let paper_models =
  [
    ("RESERVATIONONLY", C.reservation_only);
    ("NEUROHPC", C.neuro_hpc);
    ("alpha=0.3/beta=2/gamma=5", C.make ~alpha:0.3 ~beta:2.0 ~gamma:5.0 ());
  ]

(* Values spread over 26 orders of magnitude and probabilities over
   20: the cheapest choices often differ by less than a rounding error,
   and the hull may pick another of them than the scan does. *)
let wide_case_gen =
  let open QCheck.Gen in
  let* n = int_range 1 60 in
  let* values = list_repeat n (map Float.exp (float_range (-50.0) 10.0)) in
  let* weights = list_repeat n (map Float.exp (float_range (-45.0) 0.0)) in
  let total = List.fold_left ( +. ) 0.0 weights in
  let* alpha = float_range 0.01 3.0 in
  let* beta = oneof [ return 0.0; float_range 0.0 5.0 ] in
  let* gamma = oneof [ return 0.0; map Float.exp (float_range (-3.0) 30.0) ] in
  return (List.map2 (fun v p -> (v, p /. total)) values weights, (alpha, beta, gamma))

let near_scan name m d =
  let expected = oracle m d and got = Dp.solve m d in
  rel_close ~tol:1e-14 name expected.Dp.expected_cost got.Dp.expected_cost;
  rel_close ~tol:1e-12 (name ^ " replayed")
    (Dp.expected_cost_brute m d got.Dp.reservations)
    got.Dp.expected_cost

let prop_wide_range_near_oracle =
  QCheck.Test.make ~count:500
    ~name:"wide-range laws: hull cost = scan cost to rounding"
    (QCheck.make ~print:print_case wide_case_gen)
    (fun (law, (alpha, beta, gamma)) ->
      near_scan "wide range" (C.make ~alpha ~beta ~gamma ())
        (D.make (Array.of_list law));
      true)

let test_rounding_pops_argmin () =
  (* In exact arithmetic the arg-min line of state i + 1 is never
     dropped when line i arrives (line i lies above it there by
     (a_i + beta v_i) s_(i+1)). Here that margin is below the rounding
     of the intercepts, the push drops it anyway, and the pointer must
     fall back onto the stack. *)
  let d =
    D.make
      [|
        (0x1.1a53583716a63p-68, 0x1.57b6f4f439a08p-33);
        (0x1.0bbdd61980415p-46, 0x1.ff77ab532290ep-1);
        (0x1.d4ea092a0c925p-42, 0x1.11e71f47d8157p-22);
        (0x1.a57fbd8c6d6e8p-37, 0x1.9228d1c05884cp-18);
        (0x1.9b1e49c42c2b1p-15, 0x1.27457b9162c97p-34);
        (0x1.a66788baf283dp-6, 0x1.8112fa2cdf19fp-24);
        (0x1.714a06730c6bap+12, 0x1.0f000a548d689p-10);
      |]
  in
  check_oracle "wide range" (C.make ~alpha:0x1.03702c155bc06p+0 ()) d

let test_exact_ties () =
  (* Dyadic laws under dyadic cost models: every DP quantity is exact,
     so policies of equal cost tie exactly and both DPs must hand each
     tie to the smallest j. Integer values 1..n with f = 1/n: under
     RESERVATIONONLY, (k, n) costs k + ((n - k) / n) n = n for every k,
     the same as (n) alone. *)
  List.iter
    (fun n ->
      let d =
        D.make (Array.init n (fun i -> (float_of_int (i + 1), 1.0 /. float_of_int n)))
      in
      List.iter
        (fun m -> check_oracle (Printf.sprintf "uniform n=%d" n) m d)
        [ C.reservation_only; C.make ~alpha:1.0 ~beta:1.0 ~gamma:1.0 () ])
    [ 1; 2; 4; 8; 16; 32; 64 ];
  (* v = 2^k, f = 2^-(k+1) (last point 2^-9): reserving 2^k and then
     2^(k+1) weighs exactly as much as skipping 2^k. *)
  let d =
    D.make
      (Array.init 10 (fun k ->
           (Float.ldexp 1.0 k, Float.ldexp 1.0 (-(min (k + 1) 9)))))
  in
  check_oracle "geometric" C.reservation_only d;
  (* Equal slopes once rounded: gamma swamps alpha v. *)
  let d = D.make (Array.init 64 (fun i -> (1.0 +. float_of_int i, 1.0 /. 64.0))) in
  check_oracle "equal rounded slopes" (C.make ~alpha:1e-300 ~gamma:1.0 ()) d

let test_near_ties () =
  (* Arithmetic values with equal, non-dyadic probabilities: policies
     that tie in exact arithmetic differ by rounding only, and the
     scan's pick among them is an accident of the last bit. The hull
     may pick another of them; its cost must equal the scan's to
     rounding and be its own sequence's cost. *)
  List.iter
    (fun (h, a0) ->
      for n = 1 to 120 do
        let d =
          D.make
            (Array.init n (fun i ->
                 (a0 +. (h *. float_of_int (i + 1)), 1.0 /. float_of_int n)))
        in
        List.iter
          (fun (model, m) ->
            near_scan (Printf.sprintf "n=%d h=%g a0=%g %s" n h a0 model) m d)
          paper_models
      done)
    [ (1.0, 0.0); (0.1, 0.0); (0.1, 10.0); (1.0, 3.0) ]

let test_pinned_table1_grid () =
  let module Z = Stochastic_core.Discretize in
  List.iter
    (fun (law, dist) ->
      List.iter
        (fun scheme ->
          List.iter
            (fun n ->
              let disc = Z.run scheme ~n dist in
              List.iter
                (fun (model, m) ->
                  check_oracle
                    (Printf.sprintf "%s %s n=%d %s" law (Z.scheme_name scheme)
                       n model)
                    m disc)
                paper_models)
            [ 100; 1000; 3000 ])
        [ Z.Equal_probability; Z.Equal_time ])
    Distributions.Table1.all

let test_large_instance () =
  (* Far beyond what the quadratic scan could finish: only checks that
     the answer is well formed and that its reported cost is its own. *)
  let dist = Distributions.Lognormal.default in
  let disc =
    Stochastic_core.Discretize.run
      Stochastic_core.Discretize.Equal_probability ~n:200_000 dist
  in
  let m = C.neuro_hpc in
  let sol = Dp.solve m disc in
  let r = sol.Dp.reservations in
  let k = Array.length r in
  Alcotest.(check bool) "non-empty" true (k > 0);
  for i = 1 to k - 1 do
    if not (r.(i) > r.(i - 1)) then
      Alcotest.failf "reservation %d (%g) not above %g" i r.(i) r.(i - 1)
  done;
  Alcotest.(check (float 0.0)) "ends at v_n"
    disc.D.values.(D.size disc - 1) r.(k - 1);
  Alcotest.(check bool) "finite positive cost" true
    (Float.is_finite sol.Dp.expected_cost && sol.Dp.expected_cost > 0.0);
  rel_close "reported = replayed"
    (Dp.expected_cost_brute m disc r)
    sol.Dp.expected_cost

let () =
  Alcotest.run "dp"
    [
      ( "unit",
        [
          Alcotest.test_case "single point" `Quick test_single_point;
          Alcotest.test_case "two-point tradeoff" `Quick test_two_point_tradeoff;
          Alcotest.test_case "hand-computed" `Quick test_hand_computed_three_points;
          Alcotest.test_case "matches exhaustive" `Quick test_matches_exhaustive_small;
          Alcotest.test_case "reported = replayed" `Quick
            test_dp_cost_equals_sequence_cost;
          Alcotest.test_case "normalization invariance" `Quick
            test_normalization_invariance;
          Alcotest.test_case "ends at v_n" `Quick test_sequence_ends_at_vn;
          Alcotest.test_case "uniform Theorem 4" `Quick
            test_uniform_discretized_matches_theorem4;
          Alcotest.test_case "extends beyond truncation" `Quick
            test_sequence_for_extends_unbounded;
          Alcotest.test_case "brute validation" `Quick
            test_expected_cost_brute_validation;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_dp_never_worse_than_single_shot ] );
      ( "hull = oracle",
        [
          QCheck_alcotest.to_alcotest prop_hull_matches_oracle;
          Alcotest.test_case "exact ties" `Quick test_exact_ties;
          Alcotest.test_case "near ties" `Quick test_near_ties;
          QCheck_alcotest.to_alcotest prop_wide_range_near_oracle;
          Alcotest.test_case "rounding drops the arg-min line" `Quick
            test_rounding_pops_argmin;
          Alcotest.test_case "pinned Table-1 grid" `Slow test_pinned_table1_grid;
          Alcotest.test_case "n = 200000 well formed" `Slow test_large_instance;
        ] );
    ]
