(* Fixture: a function that reads the repo's wall clock. The read is
   ambient IO (a CLOCK_MONOTONIC query), so the effect inventory must
   carry it into every caller. *)

let stamp () = Stochobs.Clock.wall ()
let elapsed t0 = stamp () -. t0
