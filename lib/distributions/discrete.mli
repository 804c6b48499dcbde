(** Finite discrete distributions [(v_i, f_i), i = 1..n].

    The output of the truncation/discretization schemes of Sect. 4.2.1
    and the input of the dynamic program of Theorem 5. Values are kept
    sorted strictly increasing; probabilities are positive but are
    {e not} required to sum to 1 — after truncating an unbounded
    distribution at quantile [1 - eps], the total mass is [1 - eps]
    (the paper makes the same observation). The DP renormalises
    internally. *)

type t = private {
  values : float array;  (** Strictly increasing support points. *)
  probs : float array;  (** Matching positive probabilities. *)
}

val make : (float * float) array -> t
(** [make pairs] builds a discrete distribution from (value,
    probability) pairs: sorts by value, merges duplicate values by
    adding their probabilities, and drops pairs with zero probability.
    Input already strictly increasing in value is taken as is, without
    a sort; otherwise duplicates are merged in ascending order of
    probability, so any permutation of [pairs] gives the same record.
    @raise Invalid_argument if a value or probability is not finite
    (NaN or infinite), if any probability is negative, if no pair
    remains, or if the total mass exceeds [1 + 1e-9]. *)

val size : t -> int
(** [size d] is the number of support points. *)

val total_mass : t -> float
(** [total_mass d] is [sum f_i] (at most 1). *)

val normalize : t -> t
(** [normalize d] rescales the probabilities to sum to exactly 1. *)

val mean : t -> float
(** [mean d] is [sum v_i f_i / total_mass]. *)

val variance : t -> float
(** [variance d] is the variance under the normalized law. *)

val cdf : t -> float -> float
(** [cdf d t] is [P(X <= t)] under the normalized law. *)

val quantile : t -> float -> float
(** [quantile d x] is the smallest [v_i] with [cdf d v_i >= x].
    @raise Invalid_argument if [x] outside [[0, 1]]. *)

val sample : t -> Randomness.Rng.t -> float
(** [sample d rng] draws from the normalized law by inversion. *)

val of_samples : float array -> t
(** [of_samples xs] is the empirical frequency distribution of [xs]
    (each distinct value weighted by its frequency). *)

val to_dist : t -> Dist.t
(** [to_dist d] wraps the (normalized) discrete law in the {!Dist.t}
    interface; the pdf field returns probability mass at exact support
    points and [0.] elsewhere, so it is only meaningful for plotting
    and Monte-Carlo — not for the continuous recurrence. *)
