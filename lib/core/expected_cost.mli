(** Expected cost of a reservation sequence.

    Two evaluators are provided: the {e exact} series of Theorem 1
    (Eq. (4)) and the {e Monte-Carlo} estimator of Eq. (13) used by the
    paper's experiments, plus the omniscient baseline used for
    normalisation throughout Sect. 5. *)

val omniscient : Cost_model.t -> Distributions.Dist.t -> float
(** [omniscient m d] is [E^o = (alpha + beta) E(X) + gamma]: the
    expected cost of a scheduler that knows each job's duration and
    reserves exactly that. *)

val exact :
  ?tail_eps:float ->
  ?max_terms:int ->
  Cost_model.t ->
  Distributions.Dist.t ->
  Sequence.t ->
  float
(** [exact m d s] evaluates Eq. (4):
    [beta E(X) + sum_(i>=0) (alpha t_(i+1) + beta t_i + gamma)
    P(X >= t_i)]. The series is truncated once the survival
    probability drops below [tail_eps] (default [1e-16]) — the
    neglected remainder is provably below [tail_eps * A2] for the
    sanitized sequences produced by this library — or after
    [max_terms] (default [100_000]) terms. *)

val monte_carlo :
  Cost_model.t ->
  Distributions.Dist.t ->
  Randomness.Rng.t ->
  n:int ->
  Sequence.t ->
  float
(** [monte_carlo m d rng ~n s] draws [n] job durations from [d] and
    averages [C(k, t)] over them (Eq. (13); the paper uses
    [n = 1000]). *)

val mean_cost_presampled : Cost_model.t -> sorted_samples:float array -> Sequence.t -> float
(** [mean_cost_presampled m ~sorted_samples s] is the Monte-Carlo
    average over a caller-supplied sorted sample array — used to
    compare sequences under common random numbers
    ({!Sequence.mean_cost_sorted}). A caller pricing many sequences on
    one sample set, as the BRUTE-FORCE grid search does, prepares it
    once with {!Sequence.presample} instead. *)

val normalized :
  Cost_model.t -> Distributions.Dist.t -> cost:float -> float
(** [normalized m d ~cost] is [cost / omniscient m d]: always [>= 1],
    smaller is better (Sect. 5.1). *)
