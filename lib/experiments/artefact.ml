type outcome = {
  text : string;
  checks : (string * bool) list;
  json : Stochobs.Json.t option;
}

type t = {
  name : string;
  title : string;
  doc : string;
  run : quick:bool -> log:Stochobs.Log.t -> outcome;
}

(* [run] also receives the configuration [quick] selects. *)
let make ?json name ~title ~doc run to_string sanity =
  let run ~quick ~log =
    let cfg = if quick then Config.quick else Config.paper in
    let t = run cfg ~quick ~log in
    let json = Option.map (fun f -> f t) json in
    { text = to_string t; checks = sanity t; json }
  in
  { name; title; doc; run }

(* Table 4's check reads Table 2's Brute-Force column: both records
   force the same run, so an invocation showing both solves Table 2
   once. *)
let table2_quick = lazy (Table2.run ~cfg:Config.quick ())
let table2_paper = lazy (Table2.run ~cfg:Config.paper ())
let table2 ~quick = Lazy.force (if quick then table2_quick else table2_paper)

let all =
  [
    make "table2" ~title:"Table 2: normalized expected costs (ReservationOnly)"
      ~doc:"Reproduce Table 2."
      (fun _ ~quick ~log:_ -> table2 ~quick)
      Table2.to_string Table2.sanity;
    make "table3"
      ~title:"Table 3: best t1 vs quantile guesses (ReservationOnly)"
      ~doc:"Reproduce Table 3."
      (fun cfg ~quick:_ ~log:_ -> Table3.run ~cfg ())
      Table3.to_string Table3.sanity;
    make "table4"
      ~title:"Table 4: discretization convergence (ReservationOnly)"
      ~doc:"Reproduce Table 4."
      (fun cfg ~quick ~log:_ -> (Table4.run ~cfg (), table2 ~quick))
      (fun (t, _) -> Table4.to_string t)
      (fun (t, t2) ->
        let brute_force name =
          (List.find (fun r -> r.Table2.dist_name = name) t2.Table2.rows)
            .Table2.values.(0)
        in
        Table4.sanity t ~brute_force);
    make "fig1" ~title:"Figure 1: neuroscience traces and LogNormal fits"
      ~doc:"Reproduce Figure 1."
      (fun cfg ~quick:_ ~log:_ -> Fig1.run ~cfg ())
      Fig1.to_string Fig1.sanity;
    make "fig2" ~title:"Figure 2: HPC queue wait times and affine fit"
      ~doc:"Reproduce Figure 2."
      (fun cfg ~quick:_ ~log:_ -> Fig2.run ~cfg ())
      Fig2.to_string Fig2.sanity;
    make "fig3"
      ~title:"Figure 3: normalized cost vs t1 (gaps = invalid sequences)"
      ~doc:"Reproduce Figure 3."
      (fun cfg ~quick:_ ~log:_ -> Fig3.run ~cfg ())
      Fig3.to_string Fig3.sanity;
    make "fig4" ~title:"Figure 4: NeuroHPC scenario sweep"
      ~doc:"Reproduce Figure 4."
      (fun cfg ~quick:_ ~log:_ -> Fig4.run ~cfg ())
      Fig4.to_string Fig4.sanity;
    make "s1" ~title:"Section 3.5: optimal first reservation for Exp(1)"
      ~doc:"Compute the Exp(1) optimum of Sect. 3.5."
      (fun cfg ~quick:_ ~log:_ -> Exp_s1.run ~cfg ())
      Exp_s1.to_string Exp_s1.sanity;
    make "table2x"
      ~title:
        "Extended Table 2: paper strategies + quantile ladders on the \
         extended distributions"
      ~doc:"Extended Table 2 over the beyond-the-paper distributions."
      (fun cfg ~quick:_ ~log:_ -> Table2x.run ~cfg ())
      Table2x.to_string Table2x.sanity;
    make "ablation-bf"
      ~title:"Ablation: brute-force resolution (M, N) and MC selection optimism"
      ~doc:"Ablation: brute-force resolution and MC selection optimism."
      (fun cfg ~quick:_ ~log:_ -> Ablation_bf.run ~cfg ())
      Ablation_bf.to_string Ablation_bf.sanity;
    make "ablation-eps"
      ~title:"Ablation: truncation quantile eps for the discretization schemes"
      ~doc:"Ablation: truncation quantile for the discretization schemes."
      (fun cfg ~quick:_ ~log:_ -> Ablation_eps.run ~cfg ())
      Ablation_eps.to_string Ablation_eps.sanity;
    make "robustness"
      ~title:"Ablation: robustness to model misspecification (fit from k runs)"
      ~doc:"Ablation: strategies computed from finite-trace fits vs the oracle."
      (fun cfg ~quick:_ ~log:_ -> Robustness.run ~cfg ())
      Robustness.to_string Robustness.sanity;
    make "robust-solve"
      ~title:
        "Robust solver cascade: tier counts and validation overhead (Table 1)"
      ~doc:
        "Bench the robust solver cascade (tier counts, validation overhead) \
         over the Table 1 distributions."
      (fun cfg ~quick:_ ~log -> Robust_solve.run ~cfg ~log ())
      Robust_solve.to_string Robust_solve.sanity;
    make "trace-vs-fit"
      ~title:"Ablation: interpolating traces vs fitting a LogNormal (NeuroHPC)"
      ~doc:"Ablation: interpolated-trace vs LogNormal-fit strategies."
      (fun cfg ~quick:_ ~log:_ -> Trace_vs_fit.run ~cfg ())
      Trace_vs_fit.to_string Trace_vs_fit.sanity;
    make "cluster-contention"
      ~title:
        "Cluster scheduler: strategies under contention, wait-time loop closed"
      ~doc:
        "Cluster scheduler: reservation strategies under contention, with \
         the measured wait-time fit fed back into the cost model."
      (fun cfg ~quick ~log:_ ->
        Cluster_contention.run ~cfg ~jobs:(if quick then 500 else 1500) ())
      Cluster_contention.to_string Cluster_contention.sanity;
    make "faults"
      ~title:"Fault tolerance: failure rate x {restart, checkpoint} x strategy"
      ~doc:
        "Fault tolerance: node-failure rate x {restart, checkpoint} recovery \
         x strategy on the cluster engine."
      (fun cfg ~quick ~log ->
        Fault_tolerance.run ~cfg ~log ~jobs:(if quick then 120 else 240) ())
      Fault_tolerance.to_string Fault_tolerance.sanity;
    make ~json:Spot_savings.to_json "spot-savings"
      ~title:"Spot savings: checkpointed spot vs on-demand reservations"
      ~doc:
        "Sweep revocation MTBF x spot price ratio: checkpointed spot vs pure \
         on-demand vs naive spot, with seeded Monte-Carlo validation."
      (fun cfg ~quick ~log ->
        (* Quick mode also trims the Monte-Carlo replications and the
           assignment discretization, not just the solver budget. *)
        if quick then
          Spot_savings.run ~cfg ~log ~ratios:[ 0.3; 0.8 ] ~mc_reps:4000
            ~assign_disc_n:300 ()
        else Spot_savings.run ~cfg ~log ())
      Spot_savings.to_string Spot_savings.sanity;
  ]
