type t = unit -> float

(* A syntactic function, not [let wall : t = fun () -> ...]:
   stochdomcheck indexes a top-level value as a function (and so
   carries the IO of the clock read to its callers) only when its type
   is written as an arrow. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let fake ?(start = 0.0) ?(step = 0.001) () : t =
  if not (Float.is_finite start) || not (Float.is_finite step) || step < 0.0
  then invalid_arg "Clock.fake: start/step must be finite, step nonnegative";
  let ticks = ref 0 in
  fun () ->
    let t = start +. (float_of_int !ticks *. step) in
    incr ticks;
    t
