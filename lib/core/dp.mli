(** Optimal reservation sequences for discrete distributions
    (Theorem 5).

    For [X ~ (v_i, f_i), i = 1..n] the problem is solved exactly by
    dynamic programming over suffixes: [E*_i], the optimal expected
    cost given [X >= v_i], satisfies

    {[ E*_i = min_(i <= j <= n)
         ( alpha v_j + gamma + sum_(k=i..j) f'_k beta v_k
           + (sum_(k=j+1..n) f'_k) (beta v_j + E*_(j+1)) ) ]}

    with the conditional probabilities [f'_k = f_k / sum_(l>=i) f_l].
    The implementation works with the unconditional weights
    [W_i = S_i E*_i] ([S_i = sum_(k>=i) f_k]) and suffix sums, and
    recovers the arg-min chain by backtracking.

    {b Linear time.} With [MV_i = sum_(k>=i) f_k v_k], the candidate
    for state [i] and choice [j] is

    {[ a_j S_i + b_j + beta MV_i,  a_j = alpha v_j + gamma,
       b_j = beta v_j S_(j+1) + W_(j+1) - beta MV_(j+1) ]}

    a line in [x = S_i] plus a term shared by every [j]. Slopes rise
    with [j] ([alpha > 0], values strictly increasing) and queries [S_i]
    grow as [i] falls, so the DP is a monotone convex-hull trick and
    runs in [O(n)] time and space:
    - {e hull invariant}: states are solved for [i = n-1 .. 0]; before
      the query of state [i], a stack holds the lower envelope of
      lines [j >= i], slopes strictly decreasing from bottom to top (a
      line is dropped when it is never strictly below both neighbours,
      or below an equal-slope line); a pointer into the stack, which
      only moves up, marks the current arg-min;
    - {e tie rule}: the pointer moves up while the next line is no
      worse, so on ties the smallest [j] wins, as in a scan of
      [j = i .. n-1] that keeps the first strict minimum;
    - {e exact recompute}: the hull only picks [j]; [W_i] and the
      pointer's comparisons use the scan's own expression for the
      candidate, so [W] carries no new rounding.
    Outputs equal the quadratic scan's bit for bit (pinned by a
    differential test) unless two choices lie within rounding error of
    each other; exactly representable ties resolve as the scan does. *)

type solution = {
  reservations : float array;
      (** The optimal reservation values, a subsequence of the support
          ending with [v_n]. *)
  expected_cost : float;
      (** [E*_1] under the normalized discrete law. *)
}

val solve : Cost_model.t -> Distributions.Discrete.t -> solution
(** [solve m d] computes the optimal sequence and its expected cost.
    The input's probabilities are normalised internally (the
    discretization of a truncated distribution sums to [1 - eps]). *)

val sequence_for :
  Cost_model.t ->
  Distributions.Dist.t ->
  Distributions.Discrete.t ->
  Sequence.t
(** [sequence_for m d discrete] solves the discrete instance and wraps
    the result as a reservation sequence for the {e continuous}
    distribution [d]: for unbounded support, the finite DP sequence is
    extended beyond the truncation point by doubling
    ({!Sequence.sanitize}), as prescribed at the end of Sect. 4.2.2. *)

val expected_cost_brute : Cost_model.t -> Distributions.Discrete.t -> float array -> float
(** [expected_cost_brute m d reservations] evaluates the exact expected
    cost of an arbitrary reservation sequence on the normalized
    discrete law by direct summation — an [O(n k)] reference used by
    the tests to verify DP optimality against exhaustive search. The
    last reservation must cover [v_n].
    @raise Invalid_argument otherwise. *)
