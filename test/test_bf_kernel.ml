(* Differential tests of the BRUTE-FORCE candidate kernel (one Eq. (11)
   pass, Monte-Carlo cost from per-reservation sample counts) against
   the per-sample loop it replaced, which is kept here as the oracle. *)

module S = Stochastic_core.Sequence
module C = Stochastic_core.Cost_model
module R = Stochastic_core.Recurrence
module B = Stochastic_core.Brute_force
module E = Stochastic_core.Expected_cost
module Dist = Distributions.Dist
module Solver = Robust.Solver

(* The per-sample Eq. (13) loop: one compensated add per sample, in a
   two-pointer walk over the sorted samples and the sequence. *)
let oracle ?(max_steps = 100_000) m s samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "oracle: empty sample";
  let open C in
  let acc = Numerics.Kahan.create () in
  let comp = Numerics.Kahan.create () in
  let idx = ref 0 in
  let steps = ref 0 in
  let rec go s =
    if !idx < n then begin
      incr steps;
      if !steps > max_steps then raise (S.Not_covered samples.(!idx));
      match Seq.uncons s with
      | None -> raise (S.Not_covered samples.(!idx))
      | Some (tk, rest) ->
          let p = Numerics.Kahan.sum comp in
          while !idx < n && samples.(!idx) <= tk do
            Numerics.Kahan.add acc
              (p +. (m.alpha *. tk) +. (m.beta *. samples.(!idx)) +. m.gamma);
            incr idx
          done;
          if !idx < n then begin
            Numerics.Kahan.add comp ((m.alpha *. tk) +. (m.beta *. tk) +. m.gamma);
            go rest
          end
    end
  in
  go s;
  Numerics.Kahan.sum acc /. float_of_int n

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let bits = Int64.bits_of_float
let same_float a b = Int64.equal (bits a) (bits b)
let same_floats a b = List.length a = List.length b && List.for_all2 same_float a b

(* [Ok cost] or the sample carried by [Not_covered]. *)
let outcome f =
  match f () with c -> Ok c | exception S.Not_covered x -> Error x

(* Overflowing sequences make both evaluators return nan or inf. *)
let rel_close ~tol a b =
  (Float.is_nan a && Float.is_nan b)
  || Float.equal a b
  || Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.abs a)

(* Both evaluate, or both stop at the same uncovered sample. *)
let agree ~tol expected got =
  match (expected, got) with
  | Ok a, Ok b -> rel_close ~tol a b
  | Error x, Error y -> same_float x y
  | _ -> false

(* ------------------------- counting kernel ------------------------ *)

let model_gen =
  QCheck.Gen.(
    map3
      (fun alpha beta gamma -> C.make ~alpha ~beta ~gamma ())
      (float_range 0.1 2.0)
      (oneof [ return 0.0; float_range 0.0 2.0 ])
      (oneof [ return 0.0; float_range 0.0 2.0 ]))

(* Raw reservation values and samples on overlapping ranges; half of
   the samples are copied from the raw values so that ties x = t_k
   (which belong to reservation k) are common. *)
let case_gen =
  QCheck.Gen.(
    let* raw = list_size (int_range 1 20) (float_range 0.1 40.0) in
    let* fresh = list_size (int_range 1 60) (float_range 0.0 45.0) in
    let* copies = list_size (int_range 0 20) (oneofl raw) in
    let* bounded = bool in
    let* m = model_gen in
    return (raw, Array.of_list (fresh @ copies), bounded, m))

let print_case (raw, samples, bounded, m) =
  Printf.sprintf "raw=[%s] samples=[%s] bounded=%b alpha=%h beta=%h gamma=%h"
    (String.concat "; " (List.map (Printf.sprintf "%h") raw))
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") samples)))
    bounded m.C.alpha m.C.beta m.C.gamma

let prop_counts_match_oracle =
  QCheck.Test.make ~count:1000
    ~name:"per-reservation counts = per-sample loop (1e-12 relative)"
    (QCheck.make ~print:print_case case_gen)
    (fun (raw, samples, bounded, m) ->
      (* Bounded support ends at 30: samples past it are not covered. *)
      let support =
        if bounded then Dist.Bounded (0.0, 30.0) else Dist.Unbounded 0.0
      in
      let seq = S.sanitize ~support (List.to_seq raw) in
      let xs = sorted samples in
      let expected = outcome (fun () -> oracle m seq xs) in
      agree ~tol:1e-12 expected
        (outcome (fun () -> S.mean_cost m (S.presample samples) seq))
      && agree ~tol:1e-12 expected
           (outcome (fun () -> S.mean_cost_sorted m seq xs)))

let prop_max_steps_match_oracle =
  QCheck.Test.make ~count:500 ~name:"max_steps cut-off = per-sample loop"
    (QCheck.make
       ~print:(fun (c, k) -> Printf.sprintf "%s max_steps=%d" (print_case c) k)
       QCheck.Gen.(pair case_gen (int_range 1 12)))
    (fun ((raw, samples, _, m), max_steps) ->
      let seq = S.sanitize ~support:(Dist.Unbounded 0.0) (List.to_seq raw) in
      let xs = sorted samples in
      agree ~tol:1e-12
        (outcome (fun () -> oracle ~max_steps m seq xs))
        (outcome (fun () ->
             S.mean_cost ~max_steps m (S.presample xs) seq)))

let test_not_covered () =
  let m = C.neuro_hpc in
  let seq = S.of_list [ 1.0; 2.0; 4.0 ] in
  let check name samples =
    let xs = sorted samples in
    match
      ( outcome (fun () -> oracle m seq xs),
        outcome (fun () -> S.mean_cost m (S.presample samples) seq) )
    with
    | Error x, Error y ->
        Alcotest.(check bool) (name ^ ": same uncovered sample") true
          (same_float x y)
    | _ -> Alcotest.failf "%s: both evaluators must raise Not_covered" name
  in
  check "past the last reservation" [| 0.5; 3.0; 4.5; 9.0 |];
  check "infinite sample" [| 0.5; infinity |];
  (* Sorting puts nan first; no reservation covers it. *)
  check "nan sample" [| 3.0; nan; 0.5 |];
  Alcotest.(check bool) "max_steps carries the first uncovered sample" true
    (match
       S.mean_cost ~max_steps:2 m (S.presample [| 0.5; 3.0; 3.5 |]) seq
     with
    | _ -> false
    | exception S.Not_covered x -> same_float x 3.0)

let test_empty_rejected () =
  let seq = S.of_list [ 1.0 ] in
  let rejects f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "presampled: empty rejected" true
    (rejects (fun () ->
         S.mean_cost C.reservation_only (S.presample [||]) seq));
  Alcotest.(check bool) "sorted: empty rejected" true
    (rejects (fun () -> S.mean_cost_sorted C.reservation_only seq [||]))

let test_table2_bit_identical () =
  (* Under RESERVATIONONLY (beta = 0) every sample of a reservation
     pays the same term, and the kernel adds c_k times it exactly, so
     the Table 2 evaluations (quick configuration, common random
     numbers) match the per-sample loop bit for bit — including
     TruncatedNormal's Mean-Doubling, whose normalized cost sits on
     the 1.965 rounding edge of the printed table. *)
  let cfg = Experiments.Config.quick in
  let cost = C.reservation_only in
  List.iter
    (fun (name, d) ->
      let rng =
        Experiments.Config.rng_for cfg (Printf.sprintf "table2/%s" name)
      in
      let xs = sorted (Dist.samples d rng cfg.Experiments.Config.n_mc) in
      List.iter
        (fun (st : Stochastic_core.Strategy.t) ->
          let seq = st.Stochastic_core.Strategy.build cost d in
          let expected = oracle cost seq xs in
          let got = S.mean_cost_sorted cost seq xs in
          if not (same_float expected got) then
            Alcotest.failf "%s / %s: oracle %h, kernel %h" name
              st.Stochastic_core.Strategy.name expected got)
        (Experiments.Table2.strategies cfg))
    Distributions.Table1.all

(* ------------------------ one recurrence pass --------------------- *)

let models = [ ("RESERVATIONONLY", C.reservation_only); ("NEUROHPC", C.neuro_hpc) ]

(* [(label, law, model, t1)] over a grid of the search interval. *)
let grid ~points =
  List.concat_map
    (fun (law, d) ->
      List.concat_map
        (fun (model, m) ->
          let a, b = Stochastic_core.Bounds.search_interval m d in
          List.init points (fun i ->
              let t1 = a +. (float_of_int (i + 1) *. (b -. a) /. float_of_int points) in
              (Printf.sprintf "%s/%s/t1=%h" law model t1, d, m, t1)))
        models)
    Distributions.Table1.all

let test_prefix_sequence_is_sequence () =
  (* The sequence rebuilt from generate's prefix is the sanitized
     recurrence, element for element, including the lazily continued
     values past the prefix (unbounded laws). *)
  let checked = ref 0 in
  List.iter
    (fun (label, d, m, t1) ->
      match R.generate m d ~t1 with
      | Error _ -> ()
      | Ok p ->
          incr checked;
          let n = Array.length p + 6 in
          let want = S.take n (R.sequence m d ~t1) in
          let got = S.take n (R.sequence_of_prefix m d p) in
          if not (same_floats want got) then
            Alcotest.failf "%s: sequence_of_prefix differs from sequence" label)
    (grid ~points:150);
  Alcotest.(check bool) "valid candidates exercised" true (!checked > 500)

let test_samples_past_prefix () =
  (* Samples beyond generate's coverage point force the lazy
     continuation of the raw recurrence; the candidate cost must still
     equal the oracle over the full sanitized sequence. *)
  let forced = ref 0 in
  List.iter
    (fun (label, d, m, t1) ->
      match R.generate m d ~t1 with
      | Error _ -> ()
      | Ok p ->
          let last = p.(Array.length p - 1) in
          if not (Dist.is_bounded d) then begin
            incr forced;
            let samples =
              [| 0.5 *. t1; t1; last; last *. 1.5; last *. 3.0; last *. 7.0 |]
            in
            let seq = R.sequence m d ~t1 in
            let expected = outcome (fun () -> oracle m seq (sorted samples)) in
            let got =
              match B.candidate (S.mean_cost m (S.presample samples)) m d t1 with
              | Ok c -> Ok c
              | Error e -> Alcotest.failf "%s: %s" label (R.stop_to_string e)
              | exception S.Not_covered x -> Error x
            in
            if not (agree ~tol:1e-12 expected got) then
              Alcotest.failf "%s: kernel and oracle disagree past the prefix"
                label
          end)
    (grid ~points:40);
  Alcotest.(check bool) "continuations exercised" true (!forced > 100)

(* A law on [0, 1] built so that Eq. (11) under RESERVATIONONLY
   (t_i = sf t_(i-2) / f t_(i-1)) from t1 = 0.5 lands at 1 - 5e-10,
   inside [b - 1e-9 (b - a), b), with half the mass still uncovered:
   generate keeps it and continues to b, sanitize turns it into b. *)
let near_b_law =
  let p = 1.0 /. (1.0 -. 5e-10) in
  {
    Distributions.Uniform_dist.default with
    Dist.name = "near-b";
    support = Dist.Bounded (0.0, 1.0);
    pdf = (fun t -> if t <= 0.9 then p else 0.1);
    cdf =
      (fun t -> if t <= 0.0 then 0.0 else if t >= 1.0 then 1.0 else 0.5 *. t);
  }

let test_near_b_clamp () =
  let m = C.reservation_only and d = near_b_law in
  let near_b = 1.0 -. 1e-9 in
  let samples = [| 0.1; 0.5; 0.7; 0.9999999999; 1.0 |] in
  List.iter
    (fun (t1, want) ->
      let label = Printf.sprintf "t1 = %h" t1 in
      (match R.generate m d ~t1 with
      | Ok p ->
          Alcotest.(check bool) (label ^ ": a raw value lands in [near_b, b)")
            true
            (Array.exists (fun t -> t >= near_b && t < 1.0) p)
      | Error e -> Alcotest.failf "%s: %s" label (R.stop_to_string e));
      Alcotest.(check bool) (label ^ ": sanitized sequence") true
        (same_floats want (S.take 10 (R.sequence m d ~t1)));
      let expected = oracle m (R.sequence m d ~t1) (sorted samples) in
      match B.candidate (S.mean_cost m (S.presample samples)) m d t1 with
      | Ok c ->
          if not (rel_close ~tol:1e-12 expected c) then
            Alcotest.failf "%s: oracle %h, kernel %h" label expected c
      | Error e -> Alcotest.failf "%s: %s" label (R.stop_to_string e))
    [ (0.5, [ 0.5; 1.0 ]); (1.0 -. 5e-10, [ 1.0 ]) ]

(* ------------------------- solver, pinned ------------------------- *)

(* The paper-solve laws: the Table-1 parameters jittered by up to 5%
   from a seed. *)
let jittered_laws seed =
  let rng = Randomness.Rng.create ~seed () in
  let j () = 1.0 +. Randomness.Rng.uniform rng (-0.05) 0.05 in
  let open Distributions in
  [
    ("Exponential", Exponential.make ~rate:(1.0 *. j ()));
    ("Weibull", Weibull.make ~lambda:(1.0 *. j ()) ~kappa:(0.5 *. j ()));
    ("Gamma", Gamma_dist.make ~shape:(2.0 *. j ()) ~rate:(2.0 *. j ()));
    ("Lognormal", Lognormal.make ~mu:(3.0 *. j ()) ~sigma:(0.5 *. j ()));
    ( "TruncatedNormal",
      Truncated_normal.make ~mu:(8.0 *. j ()) ~sigma:(sqrt 2.0 *. j ())
        ~lower:0.0 );
    ("Pareto", Pareto.make ~nu:(1.5 *. j ()) ~alpha:(3.0 *. j ()));
    ( "Uniform",
      let a = 10.0 *. j () in
      Uniform_dist.make ~a ~b:(20.0 *. j ()) );
    ("Beta", Beta_dist.make ~alpha:(2.0 *. j ()) ~beta:(2.0 *. j ()));
    ( "BoundedPareto",
      Bounded_pareto.make ~l:(1.0 *. j ()) ~h:(20.0 *. j ())
        ~alpha:(2.1 *. j ()) );
  ]

(* The brute-force tier as it was: generate to validate, the sanitized
   recurrence re-run from t1, the per-sample loop to price it. *)
let oracle_t1 (budget : Solver.budget) m d =
  let a, b = Stochastic_core.Bounds.search_interval m d in
  let rng = Randomness.Rng.create ~seed:42 () in
  let xs = sorted (Dist.samples d rng budget.Solver.mc_samples) in
  let n = budget.Solver.bf_candidates in
  let step = (b -. a) /. float_of_int n in
  let best_t1 = ref nan and best_cost = ref infinity in
  for i = 1 to n do
    let t1 = a +. (float_of_int i *. step) in
    match R.generate m d ~t1 with
    | Error _ -> ()
    | Ok _ -> (
        match oracle m (R.sequence m d ~t1) xs with
        | c when Float.is_finite c && c < !best_cost ->
            best_cost := c;
            best_t1 := t1
        | _ -> ()
        | exception _ -> ())
  done;
  !best_t1

let test_solver_matches_oracle_scan () =
  let budget = Solver.default_budget in
  List.iter
    (fun seed ->
      List.iter
        (fun (law, d) ->
          List.iter
            (fun (model, m) ->
              let label = Printf.sprintf "seed %d %s/%s" seed law model in
              match Solver.solve ~budget m d with
              | Error e -> Alcotest.failf "%s: %s" label (Solver.error_to_string e)
              | Ok sol ->
                  Alcotest.(check bool) (label ^ ": brute-force tier") true
                    (sol.Solver.diagnostics.Solver.chosen = Solver.Brute_force);
                  let t1 = oracle_t1 budget m d in
                  let seq = R.sequence m d ~t1 in
                  let head =
                    S.take (Array.length sol.Solver.head) seq
                  in
                  if not (same_floats head (Array.to_list sol.Solver.head)) then
                    Alcotest.failf "%s: head differs from the oracle's (t1 %h)"
                      label t1;
                  let cost = E.exact m d seq in
                  if not (same_float cost sol.Solver.cost) then
                    Alcotest.failf "%s: cost %h, oracle %h" label
                      sol.Solver.cost cost)
            models)
        (jittered_laws seed))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "bf_kernel"
    [
      ( "counts",
        [
          QCheck_alcotest.to_alcotest prop_counts_match_oracle;
          QCheck_alcotest.to_alcotest prop_max_steps_match_oracle;
          Alcotest.test_case "Not_covered" `Quick test_not_covered;
          Alcotest.test_case "empty sample" `Quick test_empty_rejected;
          Alcotest.test_case "Table 2 evaluations bit-identical" `Quick
            test_table2_bit_identical;
        ] );
      ( "one pass",
        [
          Alcotest.test_case "prefix sequence = sequence" `Quick
            test_prefix_sequence_is_sequence;
          Alcotest.test_case "samples past the prefix" `Quick
            test_samples_past_prefix;
          Alcotest.test_case "bounded near_b clamp" `Quick test_near_b_clamp;
        ] );
      ( "solver",
        [
          Alcotest.test_case "pinned: solve = oracle scan" `Slow
            test_solver_matches_oracle_scan;
        ] );
    ]
