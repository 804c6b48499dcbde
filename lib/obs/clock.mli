(** Injectable time source for the tracing layer.

    Spans read the clock only when a real sink is attached, so the
    disabled path never touches a timer at all. The default is {!wall}
    (monotonic wall-clock seconds); tests and the CLI's [--fake-clock]
    mode inject {!fake} instead, which makes trace files reproducible
    byte for byte. *)

type t = unit -> float
(** A clock is any function returning nondecreasing seconds. *)

val wall : t
(** Monotonic wall-clock seconds ([CLOCK_MONOTONIC], read through the
    vDSO by [bechamel.monotonic_clock], about 50 ns a call). The origin
    is arbitrary, so only differences mean anything; waiting and
    sleeping count, and a step of the system clock cannot make an
    interval negative. *)

val fake : ?start:float -> ?step:float -> unit -> t
(** [fake ()] is a deterministic clock that returns
    [start + k * step] on its [k]-th reading (defaults [0.] and
    [0.001]). Every reading advances it, so equal trace structure
    yields equal timestamps — the bit-for-bit golden-trace contract.
    @raise Invalid_argument on non-finite arguments or negative
    [step]. *)
