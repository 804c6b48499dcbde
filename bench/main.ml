(* Benchmark harness: regenerates every table and figure of the paper
   (Sect. 5) and the repo's extensions from the artefact registry
   (Experiments.Artefact.all), plus three harness-only artefacts that
   measure the instrumentation and the serve daemon. Every artefact's
   qualitative checks are gates: the harness exits 1 naming each
   failed check, and 2 on a bad argument.

   Usage:
     dune exec bench/main.exe               # everything, paper parameters
     dune exec bench/main.exe -- quick      # everything, reduced parameters
     dune exec bench/main.exe -- table2     # a single artefact
     dune exec bench/main.exe -- obs --out BENCH_obs.json
                                            # instrumentation overhead
     dune exec bench/main.exe -- serve quick --out BENCH_serve.json \
       --compare bench/baselines/BENCH_serve.json
                                            # ... held to a baseline *)

module Artefact = Experiments.Artefact

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let report_sanity checks =
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  if failed = [] then
    Printf.printf "[sanity] all %d qualitative checks hold\n"
      (List.length checks)
  else
    List.iter
      (fun (label, _) -> Printf.printf "[sanity] FAILED: %s\n" label)
      failed

(* "--out FILE": write the artefact's JSON, newline-terminated. *)
let write_artefact out json =
  match out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Stochobs.Json.to_string json);
          output_char oc '\n');
      Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Observability overhead: the same solve workload with the tracing    *)
(* sink and metrics registry off vs on. The artefact backs the         *)
(* "instrumentation is a branch when disabled" claim with a number     *)
(* and a gate: the overhead must stay under 10%.                       *)
(* ------------------------------------------------------------------ *)

let run_obs () =
  let module M = Stochobs.Metrics in
  let cost = Stochastic_core.Cost_model.reservation_only in
  let d = Distributions.Lognormal.default in
  let budget = Robust.Solver.quick_budget in
  let solve obs =
    match Robust.Solver.solve ~obs ~budget ~seed:42 cost d with
    | Ok _ -> ()
    | Error e -> failwith (Robust.Solver.error_to_string e)
  in
  let time_batch reps f =
    let t0 = Stochobs.Clock.wall () in
    for _ = 1 to reps do f () done;
    Stochobs.Clock.wall () -. t0
  in
  (* Calibrate the repetition count so the no-op arm runs long enough
     to make the relative overhead measurable, then split it into short
     rounds, each timing one no-op and one instrumented batch back to
     back. The overhead is the median of the per-round ratios: a drift
     in machine load hits both batches of a round alike, and a burst
     that hits one batch moves only its round. *)
  solve Stochobs.Trace.null;
  let once = time_batch 1 (fun () -> solve Stochobs.Trace.null) in
  let reps = max 10 (min 500 (int_of_float (1.0 /. Float.max 1e-4 once))) in
  let rounds = 15 and batch = max 2 (reps / 5) in
  let buf = Buffer.create 65536 in
  let sink =
    Stochobs.Trace.make ~clock:(Stochobs.Clock.fake ())
      (Stochobs.Writer.to_buffer buf)
  in
  (* Counters only move while the registry is enabled, so the delta
     over the whole loop is the instrumented arm's. *)
  let before = M.snapshot M.default in
  let timings =
    Array.init rounds (fun _ ->
        let noop = time_batch batch (fun () -> solve Stochobs.Trace.null) in
        M.set_enabled M.default true;
        let on = time_batch batch (fun () -> solve sink) in
        M.set_enabled M.default false;
        (noop, on))
  in
  let delta = M.diff ~before ~after:(M.snapshot M.default) in
  let evaluations =
    match List.assoc_opt "robust.solver.evaluations" delta with
    | Some (M.Counter_v n) -> n
    | _ -> 0
  in
  let median f = Numerics.Stats.median (Array.map f timings) in
  let wall_noop = median fst and wall_on = median snd in
  let overhead = median (fun (noop, on) -> (on -. noop) /. noop) in
  let num v = Stochobs.Json.Num v in
  let json =
    Stochobs.Json.Obj
      [
        ("workload", Stochobs.Json.Str "robust-solve lognormal quick-budget");
        ("reps", num (float_of_int (rounds * batch)));
        ("wall_seconds_noop", num wall_noop);
        ("wall_seconds_instrumented", num wall_on);
        ("overhead", num overhead);
        ("evaluations", num (float_of_int evaluations));
        ("spans", num (float_of_int (Stochobs.Trace.spans_written sink)));
        ("trace_bytes", num (float_of_int (Buffer.length buf)));
      ]
  in
  {
    Artefact.text =
      Printf.sprintf
        "no-op: %.4f s, instrumented: %.4f s over %d solves -> overhead \
         %.2f%% (%d spans, %d trace bytes)\n"
        wall_noop wall_on batch (100.0 *. overhead)
        (Stochobs.Trace.spans_written sink)
        (Buffer.length buf);
    checks = [ ("instrumentation overhead < 10%", overhead < 0.10) ];
    json = Some json;
  }

(* ------------------------------------------------------------------ *)
(* Strategy-as-a-service daemon: N tenants with near-identical         *)
(* LogNormal fits hammer the solve endpoint. Because the cache key     *)
(* quantizes fitted parameters onto a relative grid, the fleet         *)
(* collapses onto a handful of solved entries — the artefact reports   *)
(* the measured hit rate and the cached/cold latency split its checks  *)
(* gate (hit rate >= 0.9, cached p99 at least 10x below the cold p50). *)
(* ------------------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) idx))

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* One request line against [server], timed; returns
   (latency, cached, ok). *)
let timed_request server line =
  let module J = Stochobs.Json in
  let t0 = Stochobs.Clock.wall () in
  let resp, _stop = Stochserve.Server.handle_line server line in
  let dt = Stochobs.Clock.wall () -. t0 in
  let flag j name =
    match J.member name j with Some (J.Bool b) -> b | _ -> false
  in
  match Option.map J.of_string resp with
  | Some (Ok j) -> (dt, flag j "cached", flag j "ok")
  | None | Some (Error _) -> (dt, false, false)

let run_serve ~quick =
  let module J = Stochobs.Json in
  let tenants = if quick then 20 else 48 in
  let rounds = 4 in
  let samples_per_tenant = 400 in
  let config =
    {
      Stochserve.Server.default_config with
      Stochserve.Server.grid = 0.1;
      budget = Robust.Solver.quick_budget;
    }
  in
  let server = Stochserve.Server.create config in
  let rng = Randomness.Rng.create ~seed:2024 () in
  let num v = J.Num v in
  (* Fit every tenant from its own jittered VBMQA-like trace: the
     fitted (mu, sigma) differ in the third decimal, well inside one
     0.1-grid bucket. *)
  let base = Distributions.Lognormal.make ~mu:7.1128 ~sigma:0.2039 in
  let fit_failures = ref 0 in
  for t = 1 to tenants do
    let samples =
      Distributions.Dist.samples base (Randomness.Rng.split rng)
        samples_per_tenant
    in
    let line =
      J.to_string ~indent:false
        (J.Obj
           [
             ("kind", J.Str "fit");
             ("id", num (float_of_int t));
             ("tenant", J.Str (Printf.sprintf "tenant-%03d" t));
             ( "samples",
               J.Arr (Array.to_list samples |> List.map (fun s -> num s)) );
           ])
    in
    let _, _, ok = timed_request server line in
    if not ok then incr fit_failures
  done;
  (* Interleaved solve rounds over the whole fleet: round-major order,
     so every tenant's first solve lands before any tenant's second. *)
  let cold = ref [] and cached = ref [] in
  let solve_failures = ref 0 in
  for round = 1 to rounds do
    for t = 1 to tenants do
      let line =
        J.to_string ~indent:false
          (J.Obj
             [
               ("kind", J.Str "solve");
               ("id", num (float_of_int ((round * 1000) + t)));
               ( "dist",
                 J.Obj [ ("tenant", J.Str (Printf.sprintf "tenant-%03d" t)) ]
               );
               ("strategy", J.Str "cascade");
             ])
      in
      let dt, was_cached, ok = timed_request server line in
      if not ok then incr solve_failures
      else if was_cached then cached := dt :: !cached
      else cold := dt :: !cold
    done
  done;
  let stats = Stochserve.Server.stats_json server in
  let hit_rate =
    match J.member "cache" stats with
    | Some c -> (
        match J.member "hit_rate" c with Some (J.Num v) -> v | _ -> 0.0)
    | None -> 0.0
  in
  let cold_a = sorted_array !cold and cached_a = sorted_array !cached in
  let cold_p50 = percentile cold_a 0.5 in
  let cached_p50 = percentile cached_a 0.5 in
  let cached_p99 = percentile cached_a 0.99 in
  let total_solves = tenants * rounds in
  let text =
    Printf.sprintf
      "%d tenants x %d rounds: %d cold, %d cached solves -> hit rate %.3f\n\
       latency: cold p50 %.3f ms, cached p50 %.4f ms, cached p99 %.4f ms\n"
      tenants rounds (List.length !cold) (List.length !cached) hit_rate
      (1e3 *. cold_p50) (1e3 *. cached_p50) (1e3 *. cached_p99)
  in
  let checks =
    [
      ("all fits succeed", !fit_failures = 0);
      ("all solves succeed", !solve_failures = 0);
      ("cache hit rate >= 0.9", hit_rate >= 0.9);
      ( "cached p99 at least 10x below cold p50",
        cached_p99 *. 10.0 <= cold_p50 );
    ]
  in
  let json =
    J.Obj
      [
        ("workload", J.Str "serve tenant-fleet lognormal quick-budget");
        ("tenants", num (float_of_int tenants));
        ("rounds", num (float_of_int rounds));
        ("samples_per_tenant", num (float_of_int samples_per_tenant));
        ("grid", num config.Stochserve.Server.grid);
        ("solve_requests", num (float_of_int total_solves));
        ("cold_solves", num (float_of_int (List.length !cold)));
        ("cached_solves", num (float_of_int (List.length !cached)));
        ("hit_rate", num hit_rate);
        ("cold_p50_seconds", num cold_p50);
        ("cached_p50_seconds", num cached_p50);
        ("cached_p99_seconds", num cached_p99);
      ]
  in
  { Artefact.text; checks; json = Some json }

(* ------------------------------------------------------------------ *)
(* Restart benchmark: solve a batch with --persist semantics, abandon  *)
(* the server the way a SIGKILL would (no close), then restart from    *)
(* the journal and replay the batch. The artefact reports the warm-    *)
(* restart hit rate its checks gate (>= 0.9, every record recovered)   *)
(* and the cold vs warm latency split that quantifies what the journal *)
(* buys.                                                               *)
(* ------------------------------------------------------------------ *)

let run_restart ~quick =
  let module J = Stochobs.Json in
  let entries = if quick then 12 else 32 in
  let num v = J.Num v in
  let config =
    {
      Stochserve.Server.default_config with
      Stochserve.Server.budget = Robust.Solver.quick_budget;
      cache_capacity = 2 * entries;
    }
  in
  let lines =
    List.init entries (fun i ->
        J.to_string ~indent:false
          (J.Obj
             [
               ("kind", J.Str "solve");
               ("id", num (float_of_int (i + 1)));
               ( "dist",
                 J.Obj
                   [
                     ("family", J.Str "lognormal");
                     ("mu", num (1.0 +. (0.4 *. float_of_int i)));
                     ("sigma", num 0.25);
                   ] );
             ]))
  in
  let path = Filename.temp_file "stochserve-bench" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* Cold run: every cold solve is journalled; the server is then
         abandoned without close, as an unclean death would leave it
         (appends flush record by record). Nearby parameters can share
         a quantized key, so the journal holds one record per distinct
         key, not per request — [appended] is the recovery target. *)
      let cold_times, cold_failures, appended =
        let journal = Stochserve.Journal.open_ path in
        let server = Stochserve.Server.create ~journal config in
        let times, failures =
          List.fold_left
            (fun (times, failures) line ->
              let dt, _, ok = timed_request server line in
              ((dt :: times), if ok then failures else failures + 1))
            ([], 0) lines
        in
        let appended =
          (Stochserve.Journal.stats journal).Stochserve.Journal.appended
        in
        (times, failures, appended)
      in
      (* Restart: recover the journal into a fresh server and replay. *)
      let journal = Stochserve.Journal.open_ path in
      let jstats = Stochserve.Journal.stats journal in
      let recovered = jstats.Stochserve.Journal.recovered_records in
      let skipped = jstats.Stochserve.Journal.skipped_corrupt in
      let server = Stochserve.Server.create ~journal config in
      let warm_times, warm_hits, warm_failures =
        List.fold_left
          (fun (times, hits, failures) line ->
            let dt, cached, ok = timed_request server line in
            ( dt :: times,
              (if cached then hits + 1 else hits),
              if ok then failures else failures + 1 ))
          ([], 0, 0) lines
      in
      Stochserve.Server.close server;
      let cold_p50 = percentile (sorted_array cold_times) 0.5 in
      let warm_p50 = percentile (sorted_array warm_times) 0.5 in
      let warm_hit_rate = float_of_int warm_hits /. float_of_int entries in
      let text =
        Printf.sprintf
          "%d solves (%d journalled): recovered %d (skipped %d) -> warm hit \
           rate %.3f\n\
           latency: cold p50 %.3f ms, warm p50 %.4f ms\n"
          entries appended recovered skipped warm_hit_rate (1e3 *. cold_p50)
          (1e3 *. warm_p50)
      in
      let checks =
        [
          ("all cold solves succeed", cold_failures = 0);
          ("all warm solves succeed", warm_failures = 0);
          ("every record recovered", recovered = appended && skipped = 0);
          ("warm-restart hit rate >= 0.9", warm_hit_rate >= 0.9);
          ("warm p50 below cold p50", warm_p50 < cold_p50);
        ]
      in
      let json =
        J.Obj
          [
            ("workload", J.Str "restart journal-recovery lognormal batch");
            ("entries", num (float_of_int entries));
            ("appended", num (float_of_int appended));
            ("recovered", num (float_of_int recovered));
            ("skipped_corrupt", num (float_of_int skipped));
            ("warm_hits", num (float_of_int warm_hits));
            ("warm_hit_rate", num warm_hit_rate);
            ("cold_p50_seconds", num cold_p50);
            ("warm_p50_seconds", num warm_p50);
          ]
      in
      { Artefact.text; checks; json = Some json })

(* ------------------------------------------------------------------ *)
(* Baseline comparison: "--compare BASELINE.json" reruns the artefact  *)
(* (which must also say --out FILE) and then checks every key the      *)
(* baseline file names against the fresh artefact. A baseline entry is *)
(* either a bare number (exact match) or an object                     *)
(*   {"value": V, "rel": R, "abs": A}                                  *)
(* tolerating |fresh - V| <= max(R * |V|, A). Keys the baseline names  *)
(* but the fresh artefact lacks are regressions; fresh-only keys are   *)
(* ignored (adding a field to an artefact must not break CI). Returns  *)
(* the number of violations; any makes the harness exit 1.             *)
(* ------------------------------------------------------------------ *)

let read_json_file path =
  let module J = Stochobs.Json in
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let n = in_channel_length ic in
          match J.of_string (really_input_string ic n) with
          | Ok j -> Ok j
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let compare_baseline ~baseline ~out =
  let module J = Stochobs.Json in
  let fail msg =
    Printf.eprintf "bench --compare: %s\n" msg;
    exit 1
  in
  let base =
    match read_json_file baseline with Ok j -> j | Error m -> fail m
  in
  let fresh = match read_json_file out with Ok j -> j | Error m -> fail m in
  let entries =
    match base with
    | J.Obj fields -> fields
    | _ -> fail (baseline ^ ": baseline must be a JSON object")
  in
  section (Printf.sprintf "Baseline comparison: %s vs %s" out baseline);
  let violations = ref 0 in
  List.iter
    (fun (key, spec) ->
      let expected, rel, abs_tol =
        match spec with
        | J.Num v -> (v, 0.0, 0.0)
        | J.Obj _ ->
            let num name fallback =
              match J.member name spec with
              | Some (J.Num v) -> v
              | _ -> fallback
            in
            (num "value" Float.nan, num "rel" 0.0, num "abs" 0.0)
        | _ -> (Float.nan, 0.0, 0.0)
      in
      if Float.is_nan expected then
        fail (Printf.sprintf "baseline key %S lacks a numeric value" key)
      else
        match J.member key fresh with
        | Some (J.Num got) ->
            let slack = Float.max (rel *. Float.abs expected) abs_tol in
            if Float.abs (got -. expected) <= slack then
              Printf.printf "[compare] ok         %-24s %g (baseline %g)\n" key
                got expected
            else begin
              incr violations;
              Printf.printf
                "[compare] REGRESSION %-24s %g vs baseline %g (slack %g)\n" key
                got expected slack
            end
        | _ ->
            incr violations;
            Printf.printf
              "[compare] REGRESSION %-24s missing from fresh artefact\n" key)
    entries;
  if !violations > 0 then
    Printf.eprintf "bench --compare: %d key(s) regressed against %s\n"
      !violations baseline
  else
    Printf.printf "[compare] all %d key(s) within tolerance\n"
      (List.length entries);
  !violations

let artefacts =
  Artefact.all
  @ [
      {
        Artefact.name = "obs";
        title = "Observability overhead: instrumented vs no-op solve";
        doc = "Instrumentation overhead of a traced, metered solve.";
        run = (fun ~quick:_ ~log:_ -> run_obs ());
      };
      {
        Artefact.name = "serve";
        title = "Serve daemon: tenant fleet with near-identical LogNormal fits";
        doc = "Cache hit rate and cached/cold latency of the serve daemon.";
        run = (fun ~quick ~log:_ -> run_serve ~quick);
      };
      {
        Artefact.name = "restart";
        title = "Restart: journal recovery warms the cache";
        doc = "Warm-restart hit rate after journal recovery.";
        run = (fun ~quick ~log:_ -> run_restart ~quick);
      };
    ]

let usage_error msg =
  Printf.eprintf
    "bench: %s\n\
     usage: bench [quick] [all | ARTEFACT ...] [--out FILE [--compare \
     BASELINE]]\n\
     artefacts: %s\n"
    msg
    (String.concat " " (List.map (fun a -> a.Artefact.name) artefacts));
  exit 2

(* Positional words are "quick", "all" and artefact names; "--out FILE"
   and "--compare FILE" may appear anywhere. *)
let parse_args argv =
  let is_flag a = a = "--out" || a = "--compare" in
  let rec go ((quick, names, out, cmp) as acc) = function
    | [] -> acc
    | flag :: path :: rest when is_flag flag && not (is_flag path) ->
        go
          (if flag = "--out" then (quick, names, Some path, cmp)
           else (quick, names, out, Some path))
          rest
    | flag :: _ when is_flag flag -> usage_error (flag ^ " needs a FILE")
    | "quick" :: rest -> go (true, names, out, cmp) rest
    | name :: rest
      when name = "all"
           || List.exists (fun a -> a.Artefact.name = name) artefacts ->
        go (quick, name :: names, out, cmp) rest
    | name :: _ -> usage_error (Printf.sprintf "unknown artefact %S" name)
  in
  go (false, [], None, None) argv

(* Section, table and checks of one artefact; returns its failed
   checks. *)
let run_artefact ~quick ~out (a : Artefact.t) =
  section a.title;
  let o = a.run ~quick ~log:Stochobs.Log.null in
  print_string o.Artefact.text;
  report_sanity o.checks;
  Option.iter (write_artefact out) o.json;
  List.filter_map
    (fun (label, ok) -> if ok then None else Some (a.name, label))
    o.checks

let () =
  let quick, names, out, compare_path =
    parse_args (List.tl (Array.to_list Sys.argv))
  in
  if compare_path <> None && out = None then
    usage_error "--compare requires --out FILE";
  let cfg =
    if quick then Experiments.Config.quick else Experiments.Config.paper
  in
  let all = names = [] || List.mem "all" names in
  (* Table 4's check reads Table 2, so asking for table4 shows Table 2
     as well (one shared run). *)
  let want name =
    all || List.mem name names || (name = "table2" && List.mem "table4" names)
  in
  Printf.printf
    "Reservation Strategies for Stochastic Jobs - benchmark harness\n";
  Printf.printf "parameters: M=%d, N=%d, n=%d, eps=%g, seed=%d%s\n"
    cfg.Experiments.Config.m cfg.Experiments.Config.n_mc
    cfg.Experiments.Config.disc_n cfg.Experiments.Config.eps
    cfg.Experiments.Config.seed
    (if quick then " (quick mode)" else "");
  let failed =
    List.concat_map
      (fun a -> if want a.Artefact.name then run_artefact ~quick ~out a else [])
      artefacts
  in
  let regressions =
    match (compare_path, out) with
    | Some baseline, Some out -> compare_baseline ~baseline ~out
    | _ -> 0
  in
  if failed <> [] then begin
    Printf.eprintf "bench: %d check(s) failed:\n" (List.length failed);
    List.iter
      (fun (name, label) -> Printf.eprintf "  %s: %s\n" name label)
      failed
  end;
  if failed <> [] || regressions > 0 then exit 1
