(** The BRUTE-FORCE heuristic (Sect. 4.1).

    Scans [m] candidate values of the first reservation [t1] on the
    search interval of {!Bounds.search_interval} — [(a, b]] for
    bounded support, [(a, A1]] otherwise — generates each candidate's
    full sequence with the optimal recurrence (Eq. (11)), discards
    candidates whose recurrence is not strictly increasing, evaluates
    the survivors, and returns the best. Following the paper, the
    default evaluator is the Monte-Carlo estimator over [n] common
    random samples ([m = 5000], [n = 1000] in the experiments); the
    exact Eq. (4) series is available as a deterministic alternative.

    Each candidate runs Eq. (11) once ({!candidate}). The Monte-Carlo
    evaluator sorts and sums its samples once per scan and prices a
    candidate from per-reservation sample counts, so a scan costs
    [O(m L log n)] for sequences of [L] reservations, not [O(m n)]. *)

type evaluator =
  | Monte_carlo of { rng : Randomness.Rng.t; n : int }
      (** Average cost over [n] samples drawn once and shared by all
          candidates (common random numbers). *)
  | Exact
      (** The Eq. (4) series — deterministic, slightly slower. *)

type result = {
  t1 : float;  (** Best first-reservation length found. *)
  cost : float;  (** Its (estimated) expected cost. *)
  normalized : float;  (** [cost / E^o]. *)
  sequence : Sequence.t;  (** The full sequence generated from [t1]. *)
  candidates : int;  (** Number of grid points scanned. *)
  valid : int;  (** How many produced a valid increasing sequence. *)
}

val search :
  ?m:int ->
  ?evaluator:evaluator ->
  Cost_model.t ->
  Distributions.Dist.t ->
  result
(** [search cost d] runs the grid scan with [m] (default [5000])
    candidates.
    @raise Invalid_argument if no candidate yields a valid sequence. *)

val profile :
  ?m:int ->
  ?evaluator:evaluator ->
  Cost_model.t ->
  Distributions.Dist.t ->
  (float * float option) array
(** [profile cost d] returns, for each scanned [t1], [Some
    normalized_cost] or [None] when the candidate was discarded — the
    data behind Fig. 3's per-distribution cost curves (with visible
    gaps at invalid candidates). *)

val cost_of_t1 :
  ?evaluator:evaluator ->
  Cost_model.t ->
  Distributions.Dist.t ->
  float ->
  float option
(** [cost_of_t1 cost d t1] evaluates a single candidate: [None] if the
    recurrence from [t1] is invalid (Table 3 prints these as "-"). *)

val candidate :
  (Sequence.t -> float) ->
  Cost_model.t ->
  Distributions.Dist.t ->
  float ->
  (float, Recurrence.stop) Stdlib.result
(** [candidate score cost d t1] scores one grid point with a single
    Eq. (11) pass: {!Recurrence.generate} validates [t1], and its prefix
    — continued lazily only if [score] forces the sequence past it, see
    {!Recurrence.sequence_of_prefix} — is handed to [score]. [Error]
    carries the reason the recurrence from [t1] is invalid. Exceptions
    raised by [score] propagate. *)
