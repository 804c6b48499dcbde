(* Tests for the Eq. (11) recurrence. *)

module R = Stochastic_core.Recurrence
module C = Stochastic_core.Cost_model
module S = Stochastic_core.Sequence
module Dist = Distributions.Dist

let rel_close ?(tol = 1e-9) name expected got =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (got -. expected) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

let test_exponential_closed_form () =
  (* For Exp(lambda) and RESERVATIONONLY, Eq. (11) reduces to
     t_i = e^(lambda (t_(i-1) - t_(i-2))) / lambda (Prop. 2 proof). *)
  let lambda = 2.0 in
  let d = Distributions.Exponential.make ~rate:lambda in
  let m = C.reservation_only in
  let t1 = 0.4 and t0 = 0.0 in
  let t2 = R.next m d ~t_prev2:t0 ~t_prev1:t1 in
  rel_close "t2 = e^(lambda t1)/lambda" (exp (lambda *. t1) /. lambda) t2;
  let t3 = R.next m d ~t_prev2:t1 ~t_prev1:t2 in
  rel_close "t3 closed form" (exp (lambda *. (t2 -. t1)) /. lambda) t3

let test_general_model_term () =
  (* Check the beta/gamma terms of Eq. (11) on Exp(1):
     t2 = (1 - F(0))/f(t1) + (b/a)((1 - F(t1))/f(t1) - t1) - g/a
        = e^t1 + (b/a)(1 - t1) - g/a. *)
  let d = Distributions.Exponential.default in
  let m = C.make ~alpha:2.0 ~beta:1.0 ~gamma:0.5 () in
  let t1 = 0.8 in
  rel_close "general Eq. (11)"
    (exp t1 +. (0.5 *. (1.0 -. t1)) -. 0.25)
    (R.next m d ~t_prev2:0.0 ~t_prev1:t1)

let test_generate_valid () =
  let d = Distributions.Exponential.default in
  match R.generate C.reservation_only d ~t1:0.75 with
  | Error e ->
      Alcotest.failf "expected valid sequence, got: %s" (R.stop_to_string e)
  | Ok ts ->
      Alcotest.(check bool) "covers the 1 - 1e-9 quantile" true
        (ts.(Array.length ts - 1) >= -.log 1e-9 -. 1.0);
      Array.iteri
        (fun i t ->
          if i > 0 && t <= ts.(i - 1) then
            Alcotest.fail "prefix not strictly increasing")
        ts

let test_generate_invalid_t1 () =
  let d = Distributions.Exponential.default in
  (* The median start collapses for Exp (Table 3 reports "-" there). *)
  (match R.generate C.reservation_only d ~t1:(d.Dist.quantile 0.5) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "median start expected to be invalid for Exp");
  (* t1 outside the support. *)
  (match R.generate C.reservation_only d ~t1:(-1.0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative t1 must be rejected");
  match R.generate C.reservation_only d ~t1:nan with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nan t1 must be rejected"

let test_generate_bounded_support () =
  (* Uniform: only t1 ~ b yields a valid sequence and it is just (b)
     (Theorem 4). *)
  let d = Distributions.Uniform_dist.default in
  (match R.generate C.reservation_only d ~t1:20.0 with
  | Ok ts -> Alcotest.(check (array (float 1e-9))) "single (b)" [| 20.0 |] ts
  | Error e ->
      Alcotest.failf "t1 = b should be valid: %s" (R.stop_to_string e));
  match R.generate C.reservation_only d ~t1:15.0 with
  | Error _ -> ()
  | Ok ts ->
      Alcotest.failf "t1 = 15 should collapse, got length %d"
        (Array.length ts)

let test_density_underflow_typed_stop () =
  (* A law whose density underflows to exactly 0 past t = 5 while
     ~ e^-5 of the mass is still uncovered: Eq. (11) divides by
     f t_(i-1), so generate must stop with the typed Density_underflow
     instead of propagating inf/nan. *)
  let exp1 = Distributions.Exponential.default in
  let d =
    {
      exp1 with
      Dist.name = "Exp(1), tail density underflowed";
      pdf = (fun t -> if t > 5.0 then 0.0 else exp1.Dist.pdf t);
    }
  in
  (match R.generate C.reservation_only d ~t1:0.75 with
  | Error (R.Density_underflow { t; survival }) ->
      Alcotest.(check bool) "stop is past the underflow point" true (t > 5.0);
      Alcotest.(check bool) "uncovered survival mass reported" true
        (survival > 0.0 && survival < 0.01)
  | Error e ->
      Alcotest.failf "expected Density_underflow, got: %s" (R.stop_to_string e)
  | Ok _ -> Alcotest.fail "underflowing density must not generate Ok");
  (* The sanitized infinite sequence must survive the same law by
     switching to doubling — strictly increasing, no inf/nan. *)
  let s = R.sequence C.reservation_only d ~t1:0.75 in
  let prefix = S.take 25 s in
  List.iter
    (fun v ->
      if not (Float.is_finite v) then
        Alcotest.fail "sanitized sequence emitted a non-finite value")
    prefix;
  Alcotest.(check bool) "sanitized sequence still increases" true
    (S.is_strictly_increasing 25 s)

let test_sequence_sanitized () =
  let d = Distributions.Exponential.default in
  let s = R.sequence C.reservation_only d ~t1:0.75 in
  let prefix = S.take 30 s in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sanitized recurrence increases" true
    (increasing prefix);
  Alcotest.(check int) "sequence is infinite" 30 (List.length prefix)

let test_sequence_matches_generate_prefix () =
  let d = Distributions.Lognormal.default in
  let m = C.reservation_only in
  let t1 = 30.0 in
  match R.generate m d ~t1 with
  | Error e ->
      Alcotest.failf "lognormal t1=30 should be valid: %s" (R.stop_to_string e)
  | Ok ts ->
      let s = S.take (Array.length ts) (R.sequence m d ~t1) in
      List.iteri
        (fun i v -> rel_close (Printf.sprintf "element %d" i) ts.(i) v)
        s

(* The recurrence as it was before survivals were carried forward:
   [R.next] evaluates f t_(i-1), sf t_(i-2) and sf t_(i-1) afresh on
   every step. [generate] and [sequence] must reproduce it bit for bit. *)
let reference_generate ?(coverage = 1.0 -. 1e-9) ?(max_len = 1000) m d ~t1 =
  let a = Dist.lower d and b = Dist.upper d in
  if not (Float.is_finite t1) || t1 <= a || t1 > b then
    Error (R.Unsupported_t1 t1)
  else
    let rec go acc len t_prev2 t_prev1 =
      if len >= max_len then Error (R.Too_long max_len)
      else
        let f1 = d.Dist.pdf t_prev1 in
        if f1 <= 0.0 || Float.is_nan f1 then
          Error (R.Density_underflow { t = t_prev1; survival = Dist.sf d t_prev1 })
        else
          let t = R.next m d ~t_prev2 ~t_prev1 in
          if not (Float.is_finite t) then Error (R.Non_finite { t_prev = t_prev1; next = t })
          else if t <= t_prev1 then
            Error (R.Non_increasing { t_prev = t_prev1; next = t })
          else
            let t = if t >= b then b else t in
            if t >= b || d.Dist.cdf t >= coverage then
              Ok (Array.of_list (List.rev (t :: acc)))
            else go (t :: acc) (len + 1) t_prev1 t
    in
    if d.Dist.cdf t1 >= coverage || t1 >= b then Ok [| t1 |]
    else go [ t1 ] 1 0.0 t1

let reference_sequence m d ~t1 =
  let rec step t_prev2 t_prev1 () =
    let f1 = d.Dist.pdf t_prev1 in
    let t =
      if f1 <= 0.0 || Float.is_nan f1 then nan else R.next m d ~t_prev2 ~t_prev1
    in
    Seq.Cons (t, step t_prev1 t)
  in
  S.sanitize ~support:d.Dist.support (fun () -> Seq.Cons (t1, step 0.0 t1))

let show_result = function
  | Ok ts ->
      "Ok " ^ String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") ts))
  | Error (R.Unsupported_t1 t) -> Printf.sprintf "Unsupported %h" t
  | Error (R.Density_underflow { t; survival }) ->
      Printf.sprintf "Underflow %h %h" t survival
  | Error (R.Non_finite { t_prev; next }) ->
      Printf.sprintf "Non_finite %h %h" t_prev next
  | Error (R.Non_increasing { t_prev; next }) ->
      Printf.sprintf "Non_increasing %h %h" t_prev next
  | Error (R.Too_long n) -> Printf.sprintf "Too_long %d" n

(* A law whose pdf and cdf count their calls. *)
let counting d =
  let pdf_calls = ref 0 and cdf_calls = ref 0 in
  ( {
      d with
      Dist.pdf =
        (fun t ->
          incr pdf_calls;
          d.Dist.pdf t);
      cdf =
        (fun t ->
          incr cdf_calls;
          d.Dist.cdf t);
    },
    pdf_calls,
    cdf_calls )

let test_one_evaluation_per_point () =
  let valid = ref 0 in
  List.iter
    (fun (law, d) ->
      List.iter
        (fun (model, m) ->
          let a, b = Stochastic_core.Bounds.search_interval m d in
          for i = 1 to 100 do
            let t1 = a +. (float_of_int i *. (b -. a) /. 100.0) in
            let label = Printf.sprintf "%s/%s/t1=%h" law model t1 in
            let d, pdf_calls, cdf_calls = counting d in
            let got = R.generate m d ~t1 in
            (match got with
            | Ok ts ->
                incr valid;
                let n = Array.length ts in
                (* One pdf per point a step starts from, one cdf per
                   point plus one at t_0 = 0. *)
                if !pdf_calls > n || !cdf_calls > n + 1 then
                  Alcotest.failf "%s: %d points, %d pdf / %d cdf calls" label n
                    !pdf_calls !cdf_calls
            | Error _ -> ());
            let want = reference_generate m d ~t1 in
            Alcotest.(check string) (label ^ ": generate bit-identical")
              (show_result want) (show_result got);
            let k = 12 in
            pdf_calls := 0;
            cdf_calls := 0;
            let got = S.take k (R.sequence m d ~t1) in
            let n = List.length got in
            if !pdf_calls > n || !cdf_calls > n + 1 then
              Alcotest.failf "%s: sequence took %d points, %d pdf / %d cdf calls"
                label n !pdf_calls !cdf_calls;
            let show l = String.concat "," (List.map (Printf.sprintf "%h") l) in
            Alcotest.(check string) (label ^ ": sequence bit-identical")
              (show (S.take k (reference_sequence m d ~t1)))
              (show got)
          done)
        [ ("RESERVATIONONLY", C.reservation_only); ("NEUROHPC", C.neuro_hpc) ])
    Distributions.Table1.all;
  Alcotest.(check bool) "valid candidates exercised" true (!valid > 300)

let prop_first_element_is_t1 =
  QCheck.Test.make ~count:200 ~name:"sequence starts at t1"
    QCheck.(float_range 0.1 3.0)
    (fun t1 ->
      let d = Distributions.Exponential.default in
      match S.take 1 (R.sequence C.reservation_only d ~t1) with
      | [ h ] -> Float.abs (h -. t1) < 1e-12
      | _ -> false)

let prop_optimal_t1_has_lowest_exact_cost =
  QCheck.Test.make ~count:50 ~name:"perturbing t1 away from optimum costs more"
    QCheck.(float_range 0.05 0.6)
    (fun delta ->
      (* The Exp(1) optimum from the dedicated solver beats both
         perturbed starts (exact evaluation). *)
      let d = Distributions.Exponential.default in
      let m = C.reservation_only in
      let sol = Stochastic_core.Exponential_opt.solve () in
      let s1 = sol.Stochastic_core.Exponential_opt.s1 in
      let cost t1 =
        Stochastic_core.Expected_cost.exact m d (R.sequence m d ~t1)
      in
      let c_opt = cost s1 in
      c_opt <= cost (s1 +. delta) +. 1e-9
      && c_opt <= cost (Float.max 0.01 (s1 -. delta)) +. 1e-9)

let () =
  Alcotest.run "recurrence"
    [
      ( "unit",
        [
          Alcotest.test_case "exponential closed form" `Quick
            test_exponential_closed_form;
          Alcotest.test_case "general model term" `Quick test_general_model_term;
          Alcotest.test_case "generate valid" `Quick test_generate_valid;
          Alcotest.test_case "generate invalid t1" `Quick test_generate_invalid_t1;
          Alcotest.test_case "bounded support" `Quick test_generate_bounded_support;
          Alcotest.test_case "density underflow typed stop" `Quick
            test_density_underflow_typed_stop;
          Alcotest.test_case "sequence sanitized" `Quick test_sequence_sanitized;
          Alcotest.test_case "sequence matches generate" `Quick
            test_sequence_matches_generate_prefix;
          Alcotest.test_case "one pdf/cdf evaluation per point" `Quick
            test_one_evaluation_per_point;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_first_element_is_t1;
          QCheck_alcotest.to_alcotest prop_optimal_t1_has_lowest_exact_cost;
        ] );
    ]
