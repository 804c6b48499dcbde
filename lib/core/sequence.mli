(** Reservation sequences and their cost on concrete job durations.

    A reservation sequence [S = (t1, t2, ...)] is represented as a lazy
    [float Seq.t] of strictly increasing positive reservation lengths.
    For a distribution with unbounded support the sequence must be
    infinite and tend to infinity; for bounded support [[a, b]] it must
    be finite and end with exactly [b] (Sect. 2.2 of the paper). The
    {!sanitize} combinator enforces both conventions on the output of
    any heuristic. *)

type t = float Seq.t

exception Not_covered of float
(** Raised by cost evaluation when a job duration exceeds every
    reservation in a (finite or stalled) sequence; carries the
    duration. *)

val of_list : float list -> t
(** [of_list ts] is the finite sequence [ts].
    @raise Invalid_argument if [ts] is not strictly increasing or
    contains a non-positive value. *)

val of_array : float array -> t
(** [of_array ts] — same as {!of_list} for arrays. The array is copied. *)

val take : int -> t -> float list
(** [take n s] is the list of the first (at most) [n] elements. *)

val prefix_until : ?limit:int -> (float -> bool) -> t -> float array
(** [prefix_until stop s] materialises elements of [s] up to and
    including the first one satisfying [stop] (or the whole sequence if
    it is finite), but at most [limit] (default [100_000]) elements. *)

val is_strictly_increasing : int -> t -> bool
(** [is_strictly_increasing n s] checks the first [n] elements. *)

val sanitize : support:Distributions.Dist.support -> t -> t
(** [sanitize ~support s] post-processes a heuristic's raw output into
    a well-formed reservation sequence:
    {ul
    {- values must be finite, positive and strictly increasing; when a
       raw value violates this, the sequence switches to doubling the
       last good value (guaranteeing divergence), mirroring the paper's
       remark that discretization-based sequences are extended "using
       other heuristics";}
    {- for [Bounded (_, b)] support, values are capped at [b]: the
       first value reaching (numerically) [b] is emitted as exactly [b]
       and terminates the sequence, and a finite raw sequence that
       never reaches [b] is completed with a final [b].}} *)

val cost_of_run : ?max_steps:int -> Cost_model.t -> t -> float -> int * float
(** [cost_of_run m s t] walks the sequence until the first [t_k >= t]
    and returns [(k, C(k, t))] per Eq. (2): the [k-1] failed
    reservations are paid in full ([alpha t_i + beta t_i + gamma]) and
    the successful one costs [alpha t_k + beta t + gamma].
    @raise Not_covered if the sequence ends (or [max_steps], default
    [100_000], is hit) before covering [t]. *)

type presampled
(** A Monte-Carlo sample set prepared for repeated evaluation: the
    samples in nondecreasing order and their compensated sum. *)

val presample : float array -> presampled
(** [presample samples] sorts a copy of [samples] with [Float.compare]
    and takes its compensated sum, once for any number of
    {!mean_cost} calls. *)

val mean_cost : ?max_steps:int -> Cost_model.t -> presampled -> t -> float
(** [mean_cost m p s] is the Monte-Carlo average cost (Eq. (13)) of the
    sequence over the samples of [p], computed per reservation rather
    than per sample:
    [(sum_k c_k (P_(k-1) + alpha t_k + gamma) + beta sum x) / N], where
    [c_k] counts the samples in [(t_(k-1), t_k]] (a binary search on the
    sorted samples) and [P_(k-1)] is the compensated sum of the failed
    reservations' costs. [O(k log N)] for the [k] reservations needed to
    cover the largest sample; the sequence is forced no further.
    @raise Not_covered as {!cost_of_run}, carrying the smallest
    uncovered sample.
    @raise Invalid_argument if [p] holds no sample. *)

val mean_cost_sorted : ?max_steps:int -> Cost_model.t -> t -> float array -> float
(** [mean_cost_sorted m s samples] is {!mean_cost} over [samples],
    which must be sorted in nondecreasing order (the sum is taken on
    each call).
    @raise Not_covered as {!cost_of_run}.
    @raise Invalid_argument if [samples] is empty. *)

val pp_prefix : int -> Format.formatter -> t -> unit
(** [pp_prefix n fmt s] prints up to [n] leading elements, followed by
    ["..."] if the sequence continues. *)
