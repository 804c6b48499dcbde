(** A rolling window over the most recent samples whose nearest-rank
    p99 reads in O(1).

    The window keeps its samples twice: a ring in arrival order, and a
    sorted shadow of the same multiset that each {!add} updates with
    one binary-search delete (the sample leaving the ring) and one
    binary-search insert. Samples are ordered by [Float.compare], the
    order polymorphic [compare] gives floats, so {!p99} returns the
    very element {!p99_by_sort} (sort a copy of the ring) returns;
    only [0.] and [-0.], which compare equal, are interchangeable. *)

type t

val create : int -> t
(** [create size] is an empty window over the last [size] samples.
    @raise Invalid_argument if [size < 1]. *)

val add : t -> float -> unit
(** Record a sample, evicting the oldest once the window is full. *)

val p99 : t -> float
(** Nearest-rank p99 ({!Numerics.Stats.quantile_nearest_rank_sorted})
    over the samples in the window; [0.] when it is empty. *)

val p99_by_sort : t -> float
(** The same quantile computed by copying and sorting the ring — the
    O(n log n) reference {!p99} is tested against. *)
