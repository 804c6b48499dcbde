(** The optimal-sequence recurrence of Theorem 3 / Proposition 1.

    An optimal sequence for STOCHASTIC satisfies, for [i >= 2]
    (Eq. (11), with [t_0 = 0]):

    {[ t_i = (1 - F t_(i-2)) / f t_(i-1)
             + beta/alpha * ((1 - F t_(i-1)) / f t_(i-1) - t_(i-1))
             - gamma/alpha ]}

    so the whole sequence is determined by the first reservation [t1].
    Not every [t1] yields a valid (strictly increasing) sequence — the
    recurrence only guarantees monotonicity at the optimal [t1^o] —
    and BRUTE-FORCE discards candidates that break it
    (Sect. 5.2, Fig. 3). *)

type stop =
  | Unsupported_t1 of float
      (** [t1] is non-finite or outside the support [(a, b]]. *)
  | Density_underflow of { t : float; survival : float }
      (** [f t] underflowed to 0 (or was nan) while [survival = 1 - F t]
          mass was still uncovered — Eq. (11) divides by [f t_(i-1)],
          so the recurrence cannot be continued past [t]. Typical deep
          in the tail of heavy-tailed or near-point-mass laws. *)
  | Non_finite of { t_prev : float; next : float }
      (** Eq. (11) produced a non-finite [next] after [t_prev]. *)
  | Non_increasing of { t_prev : float; next : float }
      (** Eq. (11) produced [next <= t_prev]: the candidate [t1] is off
          every optimal trajectory (Sect. 5.2). *)
  | Too_long of int
      (** [max_len] elements did not reach the coverage target. *)

(** Why the recurrence stopped before covering the target mass. *)

val stop_to_string : stop -> string
(** [stop_to_string s] is a one-line human-readable diagnostic. *)

val next :
  Cost_model.t -> Distributions.Dist.t -> t_prev2:float -> t_prev1:float -> float
(** [next m d ~t_prev2 ~t_prev1] is Eq. (11) for [t_i] given
    [t_(i-2)] and [t_(i-1)]. May return a non-finite or non-increasing
    value when [t_prev1] is not on an optimal trajectory or when the
    density underflows at [t_prev1]. *)

val generate :
  ?coverage:float ->
  ?max_len:int ->
  Cost_model.t ->
  Distributions.Dist.t ->
  t1:float ->
  (float array, stop) result
(** [generate m d ~t1] materialises the strictly increasing prefix of
    the recurrence sequence starting at [t1], stopping once
    [F t_i >= coverage] (default [1 - 1e-9]) or once the support's
    upper bound is reached (which is then included as the final
    element). Returns [Error stop] — a typed reason, see {!stop} —
    if the recurrence produces a non-finite or non-increasing value
    before that point, if the density underflows to zero with mass
    still uncovered, if [t1] lies outside the support, or if [max_len]
    (default [1000]) elements do not suffice. Each element costs one
    [pdf] and one [cdf] evaluation (plus one [cdf] at [t_0 = 0]). *)

val sequence :
  Cost_model.t -> Distributions.Dist.t -> t1:float -> Sequence.t
(** [sequence m d ~t1] is the infinite (or, for bounded support,
    [b]-terminated) sanitized reservation sequence driven by the
    recurrence: beyond the point where the raw recurrence stops
    increasing or its density underflows — which can only happen off
    the optimal trajectory or deep in the tail — it falls back to
    doubling (see {!Sequence.sanitize}). Forcing one more element costs
    one [pdf] and one [cdf] evaluation. *)

val sequence_of_prefix :
  Cost_model.t -> Distributions.Dist.t -> float array -> Sequence.t
(** [sequence_of_prefix m d p], for the prefix [p] of [Ok p = generate
    ?coverage ?max_len m d ~t1], is [sequence m d ~t1]
    element for element without running Eq. (11) over [p] again: [p]
    goes through the same {!Sequence.sanitize} rules (for bounded
    support, the first value at or above [b - 1e-9 (b - a)] becomes [b]
    and ends the sequence), and the raw recurrence is continued from the
    last two values of [p] only if the sequence is forced past [p].
    [p] is not copied and must not be mutated.
    @raise Invalid_argument if [p] is empty. *)
