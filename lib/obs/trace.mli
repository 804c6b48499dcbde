(** Structured tracing: explicit-sink spans written as JSONL.

    A {!sink} is either the no-op {!null} — every operation then costs
    a single branch, so instrumentation can stay in hot paths — or a
    real sink built from an injected {!Clock.t} and a {!Writer.t}.
    Spans are emitted {e at close}, one JSON object per line, so a
    child's line precedes its parent's; consumers reconstruct the tree
    from the [id]/[parent] fields. Span ids are assigned sequentially
    from 1, and the clock is read exactly twice per span (open/close)
    plus once per {!instant}, which makes traces under {!Clock.fake}
    reproducible bit for bit.

    Record shapes:
    {v
    {"type": "span", "name": N, "id": I, "parent": P?, "start": S,
     "end": E, "error": MSG?, "attrs": {..}?}
    {"type": "event", "name": N, "parent": P?, "at": T, "attrs": {..}?}
    v}
    Span names follow the repo-wide [layer.component.metric] naming
    scheme (e.g. ["robust.solver.tier"], ["scheduler.engine.run"]). *)

type value = Str of string | Num of float | Int of int | Bool of bool

type attr = string * value
(** One span/event attribute. *)

type sink

val null : sink
(** The disabled sink: no clock reads, no allocation, no output. *)

val make : ?clock:Clock.t -> Writer.t -> sink
(** [make writer] is a live sink. [clock] defaults to {!Clock.wall}. *)

val enabled : sink -> bool

val with_span : sink -> ?attrs:attr list -> string -> (unit -> 'a) -> 'a
(** [with_span sink name f] runs [f] inside a span. The span closes
    (and its JSONL line is written) when [f] returns {e or raises}; an
    exception is recorded in the [error] field and re-raised. Nested
    calls record the enclosing span as [parent]. On {!null} this is
    exactly [f ()]. *)

val annotate : sink -> attr list -> unit
(** Attach attributes to the innermost open span — for facts only
    known mid-body, such as which outcome a solver tier produced.
    No-op on {!null} or outside any span. *)

val instant : sink -> ?attrs:attr list -> string -> unit
(** A zero-duration point event at the current clock reading, parented
    to the innermost open span. *)

val spans_written : sink -> int
(** Spans emitted so far ([0] on {!null}) — cheap cardinality check
    for tests and the bench artefact. *)

val events_written : sink -> int
