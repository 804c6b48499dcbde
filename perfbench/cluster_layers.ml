(* The scheduler and platform layers: Scheduler.Engine.run with EASY
   backfilling on a 256-node cluster with exponential node faults (0.02
   per node-hour), hourly checkpoints and size classes 0.1 to 1, in a
   shallow-queue phase and a deep-queue phase; then a replay of
   Platform.Simulator.run plus Scheduler.Spot_sim.run on a solved plan.
   Checked on every paper-solve run and timed on its traced run, with the
   spot layers (Spot_layers). A cluster-replay workload timing these
   phases end to end was built and dropped: its timings spread too widely
   from run to run on a shared host to serve as a regression gate (see
   README.md). *)

open Common
module Core = Stochastic_core
module Engine = Scheduler.Engine

let nodes = 256

(* The shallow phase: a steady queue at load 0.7, where event handling
   dominates. The deep phase: a burst at load 20 — jobs arrive twenty
   times faster than the cluster drains them, so the queue holds nearly
   the whole burst and its depth, which drives the policy scans, is set
   by the job count rather than by the arrival realization. *)
let shallow = (15_000, 0.7)
let deep = (750, 20.0)
let sim_jobs = 100_000
let spot_reps = 50_000
let model = Core.Cost_model.neuro_hpc
let failure_rate = 0.02

type setup = {
  dist : Distributions.Dist.t;
  sequence : Core.Sequence.t;
  spot : Robust.Solver.spot_solution;
  fault_seed : int;
  stream_seed : int;
}

(* The seed jitters the job law and seeds the job streams, the fault
   traces and the replays. *)
let prepare seed =
  let rng = Randomness.Rng.create ~seed () in
  let dist =
    Distributions.Lognormal.make ~mu:(3.0 *. jitter rng 0.01)
      ~sigma:(0.5 *. jitter rng 0.01)
  in
  let base =
    match
      Robust.Solver.solve ~budget:Robust.Solver.quick_budget model dist
    with
    | Ok s -> s
    | Error e -> failwith (Robust.Solver.error_to_string e)
  in
  let spot =
    match
      Robust.Solver.solve_spot ~budget:Robust.Solver.quick_budget ~disc_n:100
        ~price_ratio:0.3 ~revocation_rate:(1.0 /. 20.0) model dist
    with
    | Ok s -> s
    | Error e -> failwith (Robust.Solver.error_to_string e)
  in
  {
    dist;
    sequence = base.sequence;
    spot;
    fault_seed = Randomness.Rng.int rng 1_000_000;
    stream_seed = Randomness.Rng.int rng 1_000_000;
  }

let checkpoint =
  Scheduler.Job.make_checkpoint
    ~params:
      (Core.Checkpoint.make_params ~checkpoint_cost:0.05 ~restart_cost:0.05)
    ~period:1.0

(* The job stream of one phase; the same seed gives the same stream. *)
let generate s (jobs, load) =
  let arrival_rate =
    Scheduler.Workload.rate_for_load ~scale_min:0.1 ~scale_max:1.0
      ~sequence:s.sequence ~load ~cluster_nodes:nodes s.dist
  in
  let spec =
    Scheduler.Workload.make_spec ~scale_min:0.1 ~scale_max:1.0
      ~jobs ~arrival_rate ()
  in
  let rng =
    Randomness.Rng.create
      ~seed:(s.stream_seed + int_of_float (load *. 100.0))
      ()
  in
  Scheduler.Workload.generate ~checkpoint spec s.dist ~sequence:s.sequence rng

let config ?obs s =
  Engine.make_config ?obs
    ~faults:
      (Scheduler.Faults.make ~seed:s.fault_seed ~mean_repair:0.1
         (Scheduler.Faults.exponential ~mtbf:(1.0 /. failure_rate)))
    ~nodes ~policy:Scheduler.Policy.Easy_backfill ()

(* A fingerprint of a run's summary: two runs of one stream must agree. *)
let fingerprint (r : Engine.result) (m : Scheduler.Metrics.summary) =
  Printf.sprintf "%d/%d/%d/%d/%.17g/%.17g/%.17g" m.completed m.abandoned
    r.events r.node_failures r.makespan r.busy_node_time m.mean_stretch

let check_run ops phase (r : Engine.result) m =
  let jobs = Array.length r.jobs in
  let finished =
    Array.for_all
      (fun j ->
        match Scheduler.Job.state j with
        | Scheduler.Job.Done | Scheduler.Job.Abandoned -> true
        | Scheduler.Job.Waiting | Scheduler.Job.Running -> false)
      r.jobs
  in
  let u = Engine.utilization r in
  check ops
    (finished && u >= 0.0 && u <= 1.0
    && m.Scheduler.Metrics.completed + m.abandoned = jobs)
    "%s phase: every job finished %b, utilization %g, completed %d + \
     abandoned %d of %d"
    phase finished u m.completed m.abandoned jobs

type loop = {
  deep_ms : Samples.t;
  shallow_ms : Samples.t;
  replay_ms : Samples.t;
  mutable waste : float;
  mutable prints : (string * string) option;
}

let replay s =
  let rng = Randomness.Rng.create ~seed:s.stream_seed () in
  let report = Platform.Simulator.run ~jobs:sim_jobs model s.dist s.sequence rng in
  let sim =
    Scheduler.Spot_sim.run ~metrics:(Stochobs.Metrics.create ())
      ~reps:spot_reps ~seed:s.stream_seed s.spot.regime model s.dist
      s.spot.plan
  in
  (report, sim)

(* The replayed spot cost must agree with the plan's analytic cost; the
   tolerance is wider than the repository's 2% gate because that cost
   comes from the evaluator at disc_n 100. *)
let check_replay ops s
    ((report : Platform.Simulator.report), (sim : Scheduler.Spot_sim.result)) =
  check ops
    (report.jobs = sim_jobs && Float.is_finite report.mean_cost
    && report.normalized_cost >= 1.0 -. 1e-9
    && sim.reps = spot_reps && sim.incomplete = 0
    && Float.abs (sim.mean_cost -. s.spot.spot_cost) <= 0.05 *. s.spot.spot_cost)
    "replay: %d jobs, normalized cost %g; spot sim %d reps, %d incomplete, \
     mean %g vs analytic %g"
    report.jobs report.normalized_cost sim.reps sim.incomplete sim.mean_cost
    s.spot.spot_cost

let run_phase ops s ~phase jobs =
  let r, dt = timed (fun () -> Engine.run (config s) jobs) in
  let m = Scheduler.Metrics.summarize ~model r in
  check_run ops phase r m;
  (r, m, dt)

let pass ops loop s =
  let shallow_jobs = generate s shallow and deep_jobs = generate s deep in
  let rs, ms, ts = run_phase ops s ~phase:"shallow" shallow_jobs in
  let rd, md, td = run_phase ops s ~phase:"deep" deep_jobs in
  Samples.add loop.shallow_ms (ts *. 1e3);
  Samples.add loop.deep_ms (td *. 1e3);
  let prints = (fingerprint rs ms, fingerprint rd md) in
  (match loop.prints with
  | None ->
      loop.prints <- Some prints;
      let bad = Scheduler.Metrics.badput ms +. Scheduler.Metrics.badput md in
      let good = ms.goodput_node_time +. md.goodput_node_time in
      loop.waste <- bad /. (bad +. good)
  | Some first ->
      check ops (first = prints)
        "same-seed runs differ: %s/%s vs %s/%s" (fst first) (snd first)
        (fst prints) (snd prints));
  let out, dt = timed (fun () -> replay s) in
  check_replay ops s out;
  Samples.add loop.replay_ms (dt *. 1e3)

let layers_of_trace ops s ~seed ~spot_cells ~untraced_deep_ms =
  let module M = Stochobs.Metrics in
  let tr = tracer () in
  let shallow_jobs =
    span tr "bench.scheduler.workload.generate" (fun () -> generate s shallow)
  in
  let deep_jobs =
    span tr "bench.scheduler.workload.generate" (fun () -> generate s deep)
  in
  M.set_enabled M.default true;
  let snap () = M.snapshot M.default in
  let s0 = snap () in
  let rs = Engine.run (config ~obs:tr.sink s) shallow_jobs in
  let s1 = snap () in
  let rd = Engine.run (config ~obs:tr.sink s) deep_jobs in
  let s2 = snap () in
  M.set_enabled M.default false;
  check_run ops "traced shallow" rs (Scheduler.Metrics.summarize ~model rs);
  check_run ops "traced deep" rd (Scheduler.Metrics.summarize ~model rd);
  let rng = Randomness.Rng.create ~seed:s.stream_seed () in
  let report =
    span tr "bench.platform.simulator.run" (fun () ->
        Platform.Simulator.run ~jobs:sim_jobs model s.dist s.sequence rng)
  in
  let metrics = M.create ~enabled:true () in
  let sim =
    span tr "bench.scheduler.spot_sim.run" (fun () ->
        Scheduler.Spot_sim.run ~metrics ~reps:spot_reps ~seed:s.stream_seed
          s.spot.regime model s.dist s.spot.plan)
  in
  check_replay ops s (report, sim);
  let spot = Spot_layers.layers tr spot_cells in
  let module R = Stochobs_analysis.Trace_read in
  let spans = read_spans tr in
  let med name = median (durations spans name) in
  let shallow_s, deep_s =
    match
      List.filter (fun sp -> sp.R.name = "scheduler.engine.run") spans
      |> List.sort (fun a b -> Float.compare a.R.start b.R.start)
      |> List.map R.duration
    with
    | [ a; b ] -> (a, b)
    | _ -> (nan, nan)
  in
  let d1 = M.diff ~before:s0 ~after:s1 and d2 = M.diff ~before:s1 ~after:s2 in
  write_trace tr (Printf.sprintf "perfbench/_run/trace-cluster-layers-%d.jsonl" seed);
  [
    metric "scheduler.workload.generate_ms" "ms"
      (med "bench.scheduler.workload.generate" *. 1e3);
    metric "scheduler.engine.run_s" "s" deep_s;
    metric "scheduler.engine.shallow.run_s" "s" shallow_s;
    metric "scheduler.engine.events" "count"
      (float_of_int (counter_of d2 "scheduler.engine.events"));
    metric "scheduler.engine.events_per_s" "1/s"
      (float_of_int (counter_of d2 "scheduler.engine.events") /. deep_s);
    metric "scheduler.engine.shallow.events_per_s" "1/s"
      (float_of_int (counter_of d1 "scheduler.engine.events") /. shallow_s);
    metric "scheduler.engine.dispatches" "count"
      (float_of_int (counter_of d2 "scheduler.engine.dispatches"));
    metric "scheduler.engine.queue_depth_max" "count"
      (gauge_max d2 "scheduler.engine.queue_depth");
    metric "scheduler.engine.shallow.queue_depth_max" "count"
      (gauge_max d1 "scheduler.engine.queue_depth");
    metric "scheduler.engine.kills.node_failure" "count"
      (float_of_int (counter_of d2 "scheduler.engine.kills.node_failure"));
    metric "platform.simulator.jobs_per_s" "1/s"
      (float_of_int sim_jobs /. med "bench.platform.simulator.run");
    metric "scheduler.spot_sim.reps_per_s" "1/s"
      (float_of_int spot_reps /. med "bench.scheduler.spot_sim.run");
    metric "spot.sim.attempts" "count"
      (float_of_int (counter_of (M.snapshot metrics) "spot.sim.attempts"));
    metric "bench.trace_overhead" "ratio"
      ((deep_s *. 1e3 /. untraced_deep_ms) -. 1.0);
  ]
  @ spot

(* Two passes (the second must reproduce the first), the spot-layer
   checks, and on a traced run the layer measurements. Returns the named
   metrics and the per-layer metrics. *)
let run ops ~seed ~trace =
  let s = prepare seed in
  let loop =
    {
      deep_ms = Samples.create ();
      shallow_ms = Samples.create ();
      replay_ms = Samples.create ();
      waste = nan;
      prints = None;
    }
  in
  pass ops loop s;
  pass ops loop s;
  let spot_cells = Spot_layers.cells seed in
  let spot_savings = Spot_layers.check_cells ops spot_cells in
  let deep_ms = median loop.deep_ms and shallow_ms = median loop.shallow_ms in
  let layers =
    if trace then
      layers_of_trace ops s ~seed ~spot_cells ~untraced_deep_ms:deep_ms
    else []
  in
  let jobs_per_s (jobs, _) ms = float_of_int jobs /. (ms /. 1e3) in
  let named =
    [
      metric "cluster.deep_jobs_per_s" "1/s" (jobs_per_s deep deep_ms)
        ~note:(Printf.sprintf "%d jobs on %d nodes, load %g, 2 runs"
                 (fst deep) nodes (snd deep));
      metric "cluster.shallow_jobs_per_s" "1/s" (jobs_per_s shallow shallow_ms)
        ~note:(Printf.sprintf "%d jobs on %d nodes, load %g, 2 runs"
                 (fst shallow) nodes (snd shallow));
      metric "replay_jobs_per_s" "1/s"
        (float_of_int (sim_jobs + spot_reps) /. (median loop.replay_ms /. 1e3))
        ~note:(Printf.sprintf "%d simulator jobs + %d spot replications, 2 runs"
                 sim_jobs spot_reps);
      metric "spot_savings" "ratio" spot_savings
        ~note:
          (Printf.sprintf "mean of 1 - spot/on-demand over %d snapshot-recovery cells"
             (List.length spot_cells));
      metric "badput_share" "ratio" loop.waste
        ~note:"node-time of killed attempts over all node-time consumed";
    ]
  in
  (named, layers)
