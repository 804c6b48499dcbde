(* Workload paper-solve: Robust.Solver.solve at the paper budget on the
   nine Table-1 laws (parameters jittered by the seed), under both cost
   models, once through the full cascade and once through the
   equal-probability DP tier alone. One closed-loop caller. Outside the
   timed region every run also checks the scheduler, platform and spot
   layers (Cluster_layers), and the traced run measures them. *)

open Common
module Dist = Distributions.Dist
module Solver = Robust.Solver
module Core = Stochastic_core

type instance = {
  law : string;
  model_name : string;
  model : Core.Cost_model.t;
  dist : Dist.t;
  omniscient : float;
  cascade : bool;  (** [false]: the DP tier alone. *)
}

(* The Table-1 laws with every parameter jittered by up to 5%. *)
let laws rng =
  let j () = jitter rng 0.05 in
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

let models =
  [
    ("RESERVATIONONLY", Core.Cost_model.reservation_only);
    ("NEUROHPC", Core.Cost_model.neuro_hpc);
  ]

let instances seed =
  let rng = Randomness.Rng.create ~seed () in
  let laws = laws rng in
  List.concat_map
    (fun cascade ->
      List.concat_map
        (fun (model_name, model) ->
          List.map
            (fun (law, dist) ->
              {
                law;
                model_name;
                model;
                dist;
                omniscient = Core.Expected_cost.omniscient model dist;
                cascade;
              })
            laws)
        models)
    [ true; false ]

let budget = Solver.default_budget

let solve ?obs inst =
  let tiers =
    if inst.cascade then Solver.all_tiers else [ Solver.Dp_equal_probability ]
  in
  Solver.solve ?obs ~budget ~tiers inst.model inst.dist

let label inst =
  Printf.sprintf "%s/%s/%s" inst.law inst.model_name
    (if inst.cascade then "cascade" else "dp")

(* The output checks: a strictly increasing head covering the support,
   a finite cost no lower than E^o, equal to a fresh Eq. (4)
   evaluation. *)
let check_solution ops inst = function
  | Error e ->
      check ops false "%s: solve failed: %s" (label inst)
        (Solver.error_to_string e)
  | Ok (sol : Solver.solution) ->
      let head = sol.head in
      let n = Array.length head in
      let increasing = ref (n > 0 && head.(0) > 0.0) in
      for i = 1 to n - 1 do
        if not (head.(i) > head.(i - 1)) then increasing := false
      done;
      let d = inst.dist in
      let covers =
        n > 0
        &&
        let last = head.(n - 1) in
        if Dist.is_bounded d then
          last >= Dist.upper d -. (1e-9 *. Float.max 1.0 (Dist.upper d))
        else d.Dist.cdf last >= 1.0 -. 1e-9
      in
      let fresh = Core.Expected_cost.exact inst.model d sol.sequence in
      let cost = sol.cost in
      check ops
        (!increasing && covers && Float.is_finite cost
        && cost >= inst.omniscient *. (1.0 -. 1e-9)
        && Float.abs (fresh -. cost) <= 1e-9 *. Float.abs cost)
        "%s: head increasing %b, covers %b, cost %.17g, E^o %.17g, fresh \
         Eq. (4) %.17g"
        (label inst) !increasing covers cost inst.omniscient fresh

type loop = {
  cascade_ms : Samples.t;
  dp_ms : Samples.t;
  rep_cascade : Repeats.t;
  rep_dp : Repeats.t;
  ratio : Samples.t;
  mutable solves : int;
  mutable busy : float;
}

let new_loop () =
  {
    cascade_ms = Samples.create ();
    dp_ms = Samples.create ();
    rep_cascade = Repeats.create ();
    rep_dp = Repeats.create ();
    ratio = Samples.create ();
    solves = 0;
    busy = 0.0;
  }

(* One pass over every instance: each solve timed on its own, checked
   outside the timed region. *)
let pass ?obs ops loop insts =
  List.iter
    (fun inst ->
      let r, dt = timed (fun () -> solve ?obs inst) in
      loop.busy <- loop.busy +. dt;
      loop.solves <- loop.solves + 1;
      Samples.add (if inst.cascade then loop.cascade_ms else loop.dp_ms)
        (dt *. 1e3);
      Repeats.add
        (if inst.cascade then loop.rep_cascade else loop.rep_dp)
        (label inst) (dt *. 1e3);
      (match r with
      | Ok sol when loop.solves <= List.length insts ->
          Samples.add loop.ratio sol.Solver.normalized
      | Ok _ | Error _ -> ());
      check_solution ops inst r)
    insts

(* The layer probes of the traced run: each public call the solve
   decomposes into, timed by a span of the benchmark's own. *)
let probe tr inst =
  let m = inst.model and d = inst.dist in
  let rng = Randomness.Rng.create ~seed:42 () in
  ignore (span tr "bench.robust.dist_check.run" (fun () -> Robust.Dist_check.run d));
  let bf =
    span tr "bench.core.brute_force.search" (fun () ->
        Core.Brute_force.search ~m:budget.bf_candidates
          ~evaluator:
            (Core.Brute_force.Monte_carlo { rng; n = budget.mc_samples })
          m d)
  in
  for _ = 1 to 20 do
    ignore
      (span tr "bench.core.recurrence.generate" (fun () ->
           Core.Recurrence.generate m d ~t1:bf.t1))
  done;
  ignore
    (span tr "bench.core.expected_cost.monte_carlo" (fun () ->
         Core.Expected_cost.monte_carlo m d rng ~n:budget.mc_samples
           bf.sequence));
  for _ = 1 to 20 do
    ignore
      (span tr "bench.core.expected_cost.exact" (fun () ->
           Core.Expected_cost.exact m d bf.sequence))
  done;
  let disc =
    span tr "bench.core.discretize.run" (fun () ->
        Core.Discretize.run Core.Discretize.Equal_probability
          ~n:budget.dp_points d)
  in
  ignore (span tr "bench.core.dp.solve" (fun () -> Core.Dp.solve m disc));
  bf.candidates

let str_attr sp key =
  match List.assoc_opt key sp.Stochobs_analysis.Trace_read.attrs with
  | Some (Stochobs.Json.Str s) -> s
  | _ -> ""

let layer_metrics tr ~solves ~cascade_solves ~recurrence_calls ~delta
    ~overhead =
  let module R = Stochobs_analysis.Trace_read in
  let spans = read_spans tr in
  let med name scale = median (durations spans name) *. scale in
  let tier_self tier =
    let s = Samples.create () in
    List.iter
      (fun sp ->
        if sp.R.name = "robust.solver.tier" && str_attr sp "tier" = tier then
          Samples.add s (R.self_time sp *. 1e3))
      spans;
    median s
  in
  (* Share of cascade solve time spent in the brute-force tier. *)
  let bf_time = ref 0.0 and cascade_time = ref 0.0 in
  List.iter
    (fun sp ->
      if sp.R.name = "robust.solver.solve" then
        List.iter
          (fun (c : R.span) ->
            if str_attr c "tier" = "recurrence-brute-force" then begin
              bf_time := !bf_time +. R.duration c;
              cascade_time := !cascade_time +. R.duration sp
            end)
          sp.R.children)
    spans;
  let per_solve name =
    float_of_int (counter_of delta name) /. float_of_int (max 1 solves)
  in
  [
    metric "numerics.integrate.calls" "count/solve"
      (per_solve "numerics.integrate.calls");
    metric "numerics.optimize.evaluations" "count/solve"
      (per_solve "numerics.optimize.evaluations");
    metric "robust.solver.evaluations" "count/solve"
      (per_solve "robust.solver.evaluations");
    metric "core.recurrence.generate_us" "us"
      (med "bench.core.recurrence.generate" 1e6);
    metric "core.recurrence.calls" "count/solve"
      (float_of_int recurrence_calls /. float_of_int (max 1 cascade_solves));
    metric "core.brute_force.search_ms" "ms"
      (med "bench.core.brute_force.search" 1e3);
    metric "core.expected_cost.mc_us" "us"
      (med "bench.core.expected_cost.monte_carlo" 1e6);
    metric "core.expected_cost.exact_us" "us"
      (med "bench.core.expected_cost.exact" 1e6);
    metric "core.discretize.run_ms" "ms" (med "bench.core.discretize.run" 1e3);
    metric "core.dp.solve_ms" "ms" (med "bench.core.dp.solve" 1e3);
    metric "robust.dist_check.run_ms" "ms"
      (med "bench.robust.dist_check.run" 1e3);
    metric "robust.solver.tier.recurrence-brute-force.self_ms" "ms"
      (tier_self "recurrence-brute-force");
    metric "robust.solver.tier.equal-probability-dp.self_ms" "ms"
      (tier_self "equal-probability-dp");
    metric "robust.solver.brute_force_share" "ratio"
      (if !cascade_time > 0.0 then !bf_time /. !cascade_time else 0.0);
    metric "bench.trace_overhead" "ratio" overhead;
  ]

(* Set-up: generate the instances, validate every law the way the
   solver will, and run one untimed warm-up solve so that lazy set-up
   finishes before timing. *)
let setup ops seed =
  let insts = instances seed in
  List.iter
    (fun inst ->
      if inst.cascade && inst.model_name = "NEUROHPC" then
        let report = Robust.Dist_check.run inst.dist in
        check ops (Robust.Dist_check.is_valid report) "%s: %s" (label inst)
          (Robust.Dist_check.summary report))
    insts;
  (match List.find_opt (fun i -> not i.cascade) insts with
  | Some inst -> check_solution ops inst (solve inst)
  | None -> ());
  insts

let run ~seed ~seconds ~trace =
  let ops = tally () in
  let insts, setup_s = repeat_setup 5 (fun () -> setup ops seed) in
  let loop = new_loop () in
  let t0 = now () in
  let layers =
    if not trace then begin
      while now () -. t0 < seconds || loop.solves = 0 do
        pass ops loop insts
      done;
      []
    end
    else begin
      (* Alternate untraced and traced passes: the headline medians of
         the two give the tracing overhead. *)
      let tr = tracer () in
      let traced = new_loop () in
      let module M = Stochobs.Metrics in
      let before = ref [] and delta = ref [] in
      while now () -. t0 < seconds || traced.solves = 0 do
        pass ops loop insts;
        M.set_enabled M.default true;
        before := M.snapshot M.default;
        pass ~obs:tr.sink ops traced insts;
        delta :=
          M.merge !delta (M.diff ~before:!before ~after:(M.snapshot M.default));
        M.set_enabled M.default false
      done;
      let cascade = List.filter (fun i -> i.cascade) insts in
      let recurrence_calls =
        List.fold_left (fun acc inst -> acc + probe tr inst) 0 cascade
      in
      let overhead =
        (median traced.cascade_ms /. median loop.cascade_ms) -. 1.0
      in
      let l =
        layer_metrics tr ~solves:traced.solves
          ~cascade_solves:(List.length cascade) ~recurrence_calls
          ~delta:!delta ~overhead
      in
      write_trace tr (Printf.sprintf "perfbench/_run/trace-paper-solve-%d.jsonl" seed);
      l
    end
  in
  let elapsed = now () -. t0 in
  let cluster_named, cluster_layers = Cluster_layers.run ops ~seed ~trace in
  let nc = Samples.count loop.cascade_ms and nd = Samples.count loop.dp_ms in
  let p50 = median loop.cascade_ms
  and p90 = quantile loop.cascade_ms 0.9
  and dp50 = median loop.dp_ms
  and ratio = geomean loop.ratio in
  let note n p = Printf.sprintf "n=%d, %d beyond" n (beyond n p) in
  let instances = Repeats.count loop.rep_cascade + Repeats.count loop.rep_dp in
  {
    setup_s;
    op_ms = Repeats.median loop.rep_cascade;
    alt_op_ms = Repeats.median loop.rep_dp;
    throughput_per_s =
      float_of_int instances
      /. ((Repeats.total loop.rep_cascade +. Repeats.total loop.rep_dp) /. 1e3);
    quality = ratio;
    ops;
    named =
      [
        metric "solve_p50_ms" "ms" p50 ~note:(note nc 0.5);
        metric "solve_p90_ms" "ms" p90 ~note:(note nc 0.9);
        metric "dp_solve_p50_ms" "ms" dp50 ~note:(note nd 0.5);
        metric "cost_ratio" "ratio" ratio
          ~note:(Printf.sprintf "geometric mean over the %d instances" (Samples.count loop.ratio));
        metric "solves_per_s" "1/s"
          (float_of_int loop.solves /. loop.busy)
          ~note:(Printf.sprintf "%d solves in %.2f s" loop.solves elapsed);
      ]
      @ cluster_named;
    layers = layers @ cluster_layers;
  }
