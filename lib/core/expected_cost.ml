module Dist = Distributions.Dist

let omniscient m d =
  let open Cost_model in
  ((m.alpha +. m.beta) *. d.Dist.mean) +. m.gamma

let exact ?(tail_eps = 1e-16) ?(max_terms = 100_000) m d s =
  let open Cost_model in
  let acc = Numerics.Kahan.create () in
  Numerics.Kahan.add acc (m.beta *. d.Dist.mean);
  (* i = 0 term uses t_0 = 0, P(X >= 0) = 1 and needs t_1. *)
  let rec go i t_prev sf_prev s =
    if i > max_terms then ()
    else
      match Seq.uncons s with
      | None -> ()
      | Some (t_next, rest) ->
          Numerics.Kahan.add acc
            (((m.alpha *. t_next) +. (m.beta *. t_prev) +. m.gamma) *. sf_prev);
          let sf_next = Dist.sf d t_next in
          if sf_next < tail_eps then ()
          else go (i + 1) t_next sf_next rest
  in
  go 0 0.0 1.0 s;
  Numerics.Kahan.sum acc

let monte_carlo m d rng ~n s =
  let samples = Dist.samples d rng n in
  Numerics.Stats.sort samples;
  Sequence.mean_cost_sorted m s samples

let mean_cost_presampled m ~sorted_samples s =
  Sequence.mean_cost_sorted m s sorted_samples

let normalized m d ~cost = cost /. omniscient m d
