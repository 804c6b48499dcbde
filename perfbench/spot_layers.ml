(* The spot layers — Spot_cost and Spot_plan, reached through
   Robust.Solver.solve_spot with snapshot (checkpoint) recovery on
   NEUROHPC — checked on every paper-solve run and timed on its traced
   run. A spot-plan workload of their own timed these solves end to end,
   but its readings spread too widely from run to run on a shared host to
   serve as a regression gate (see README.md). *)

open Common
module Solver = Robust.Solver
module Core = Stochastic_core

type cell = { mu : float; sigma : float; price_ratio : float; mtbf : float }

(* The assignment evaluator's discretization. The library default (500)
   makes one solve take seconds on these laws; at 100 the plan search
   still does most of the work. *)
let disc_n = 100
let model = Core.Cost_model.neuro_hpc

let recovery =
  Core.Spot_cost.Snapshot { period = 1.0; snapshot_cost = 0.05; restore_cost = 0.05 }

let dist c = Distributions.Lognormal.make ~mu:c.mu ~sigma:c.sigma

(* LogNormal laws of mean about 11 checkpoint periods, at a cheap
   (price 0.3, MTBF 20 h) and a dear (price 0.8, MTBF 5 h) spot market;
   the seed jitters every parameter. *)
let cells seed =
  let rng = Randomness.Rng.create ~seed:(seed + 1) () in
  List.map
    (fun (price_ratio, mtbf) ->
      {
        mu = 2.3 *. jitter rng 0.01;
        sigma = 0.5 *. jitter rng 0.02;
        price_ratio = price_ratio *. jitter rng 0.02;
        mtbf = mtbf *. jitter rng 0.03;
      })
    [ (0.3, 20.0); (0.8, 5.0) ]

let label c =
  Printf.sprintf "spot mu %.3f sigma %.3f price %.3f mtbf %.2fh" c.mu c.sigma
    c.price_ratio c.mtbf

let solve ?obs c =
  Solver.solve_spot ?obs ~recovery ~disc_n ~price_ratio:c.price_ratio
    ~revocation_rate:(1.0 /. c.mtbf) model (dist c)

(* The output checks: every plan costs no more than the all-on-demand
   plan, and the first cell's plan, replayed against seeded revocation
   traces, matches its analytic cost within the repository's 2%
   Monte-Carlo gate. Returns the mean savings. *)
let check_cells ops cells =
  let savings =
    List.map
      (fun c ->
        match solve c with
        | Error e ->
            check ops false "%s: solve_spot failed: %s" (label c)
              (Solver.error_to_string e);
            nan
        | Ok s ->
            check ops
              (Float.is_finite s.spot_cost && s.spot_cost > 0.0
              && s.spot_cost <= s.on_demand_cost)
              "%s: spot cost %.17g, on-demand cost %.17g" (label c)
              s.spot_cost s.on_demand_cost;
            (match cells with
            | first :: _ when first == c ->
                let analytic =
                  Core.Spot_cost.expected_cost ~disc_n:500 s.regime model
                    (dist c) s.plan
                in
                let sim =
                  Scheduler.Spot_sim.run ~metrics:(Stochobs.Metrics.create ())
                    ~reps:20_000 ~seed:7 s.regime model (dist c) s.plan
                in
                let rel = Float.abs (analytic -. sim.mean_cost) /. sim.mean_cost in
                check ops (rel <= 0.02)
                  "%s: analytic %.6g vs simulated %.6g (rel %.4f > 0.02)"
                  (label c) analytic sim.mean_cost rel
            | _ -> ());
            s.savings)
      cells
  in
  List.fold_left ( +. ) 0.0 savings /. float_of_int (List.length savings)

(* The traced measurement: each cell solved with the program's own spans
   (the base cascade shows as robust.solver.solve), then its evaluator
   and plan search called directly under spans of the benchmark's own. *)
let layers tr cells =
  let probed =
    List.filter_map
      (fun c ->
        let r, solve_s = timed (fun () -> solve ~obs:tr.sink c) in
        match r with
        | Error _ -> None
        | Ok s ->
            let d = dist c in
            let ev =
              span tr "bench.core.spot_cost.evaluator" (fun () ->
                  Core.Spot_cost.evaluator ~disc_n s.regime model d)
            in
            for _ = 1 to 3 do
              ignore (span tr "bench.core.spot_cost.eval" (fun () -> ev s.plan))
            done;
            let (_ : Core.Spot_plan.assignment), assign_s =
              timed (fun () ->
                  span tr "bench.core.spot_plan.assign" (fun () ->
                      Core.Spot_plan.assign ~disc_n s.regime model d
                        s.base.head))
            in
            Some (assign_s, solve_s, float_of_int s.assignment_evaluations))
      cells
  in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 probed in
  let spans = read_spans tr in
  let med name scale = median (durations spans name) *. scale in
  let evaluations = sum (fun (_, _, e) -> e) in
  [
    metric "core.spot_cost.evaluator_setup_ms" "ms"
      (med "bench.core.spot_cost.evaluator" 1e3);
    metric "core.spot_cost.eval_ms" "ms" (med "bench.core.spot_cost.eval" 1e3);
    metric "core.spot_plan.assign_s" "s" (med "bench.core.spot_plan.assign" 1.0);
    metric "core.spot_plan.assign_share" "ratio"
      (sum (fun (a, _, _) -> a) /. sum (fun (_, s, _) -> s));
    metric "core.spot_plan.evaluations" "count" evaluations;
    metric "core.spot_plan.evals_per_solve" "count/solve"
      (evaluations /. float_of_int (max 1 (List.length probed)));
    metric "robust.solver.spot.base_ms" "ms" (med "robust.solver.solve" 1e3);
  ]
