module Dist = Distributions.Dist

type evaluator =
  | Monte_carlo of { rng : Randomness.Rng.t; n : int }
  | Exact

type result = {
  t1 : float;
  cost : float;
  normalized : float;
  sequence : Sequence.t;
  candidates : int;
  valid : int;
}

let default_m = 5000
let default_n = 1000

let make_eval evaluator cost d =
  match evaluator with
  | Exact -> fun seq -> Expected_cost.exact cost d seq
  | Monte_carlo { rng; n } ->
      Sequence.mean_cost cost (Sequence.presample (Dist.samples d rng n))

let default_evaluator () = Monte_carlo { rng = Randomness.Rng.create (); n = default_n }

let candidate score cost d t1 =
  Result.map
    (fun prefix -> score (Recurrence.sequence_of_prefix cost d prefix))
    (Recurrence.generate cost d ~t1)

let scan ?(m = default_m) ?evaluator cost d =
  let evaluator =
    match evaluator with Some e -> e | None -> default_evaluator ()
  in
  let eval = make_eval evaluator cost d in
  let a, b = Bounds.search_interval cost d in
  let step = (b -. a) /. float_of_int m in
  Array.init m (fun i ->
      let t1 = a +. (float_of_int (i + 1) *. step) in
      (t1, Result.to_option (candidate eval cost d t1)))

let search ?m ?evaluator cost d =
  let results = scan ?m ?evaluator cost d in
  let candidates = Array.length results in
  let valid = ref 0 in
  let best_t1 = ref nan and best_cost = ref infinity in
  Array.iter
    (fun (t1, c) ->
      match c with
      | None -> ()
      | Some c ->
          incr valid;
          if c < !best_cost then begin
            best_cost := c;
            best_t1 := t1
          end)
    results;
  if !valid = 0 then
    invalid_arg "Brute_force.search: no valid candidate sequence found";
  {
    t1 = !best_t1;
    cost = !best_cost;
    normalized = Expected_cost.normalized cost d ~cost:!best_cost;
    sequence = Recurrence.sequence cost d ~t1:!best_t1;
    candidates;
    valid = !valid;
  }

let profile ?m ?evaluator cost d =
  let results = scan ?m ?evaluator cost d in
  Array.map
    (fun (t1, c) ->
      (t1, Option.map (fun c -> Expected_cost.normalized cost d ~cost:c) c))
    results

let cost_of_t1 ?evaluator cost d t1 =
  let evaluator =
    match evaluator with Some e -> e | None -> default_evaluator ()
  in
  let eval = make_eval evaluator cost d in
  Result.to_option (candidate eval cost d t1)
