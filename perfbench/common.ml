(* Shared plumbing of the benchmark: the monotonic clock, order
   statistics, seeded jitter, the operation tally, the span recorder and
   the per-run result every workload returns. *)

(* Monotonic wall clock in seconds (CLOCK_MONOTONIC): waiting counts,
   and a clock step cannot make an interval negative. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Samples and order statistics                                        *)

module Samples = struct
  type t = { mutable xs : float array; mutable n : int }

  let create () = { xs = Array.make 64 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.xs then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.xs 0 bigger 0 t.n;
      t.xs <- bigger
    end;
    t.xs.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let sorted t =
    let a = Array.sub t.xs 0 t.n in
    Array.sort Float.compare a;
    a
end

(* Linear interpolation between order statistics; [nan] when empty. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile s p = quantile_sorted (Samples.sorted s) p
let median s = quantile s 0.5

(* Samples strictly above the [p] quantile: a named percentile needs at
   least ten of them to be reported. *)
let beyond n p = n - int_of_float (ceil (p *. float_of_int n))

let median_list l =
  let s = Samples.create () in
  List.iter (Samples.add s) l;
  median s

(* Repeated timings, per instance. The host's speed swings by half
   again from one stretch of seconds to the next: sporadic fast stretches
   come and go, while the common, slower state recurs in every run. A
   high quantile of an instance's repeats reads that recurring state and
   so is the steadiest reading from run to run. *)
let steady_q = 0.9

module Repeats = struct
  type t = (string, Samples.t) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (t : t) key dt =
    let s =
      match Hashtbl.find_opt t key with
      | Some s -> s
      | None ->
          let s = Samples.create () in
          Hashtbl.replace t key s;
          s
    in
    Samples.add s dt

  let count (t : t) = Hashtbl.length t

  (* The [steady_q] quantile of each instance's repeats. *)
  let per_instance (t : t) =
    Hashtbl.fold (fun _ s acc -> quantile s steady_q :: acc) t []

  let median t = median_list (per_instance t)
  let total t = List.fold_left ( +. ) 0.0 (per_instance t)
end

let geomean s =
  let a = Samples.sorted s in
  if Array.length a = 0 then nan
  else
    exp
      (Array.fold_left (fun acc x -> acc +. log x) 0.0 a
      /. float_of_int (Array.length a))

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                        *)

(* A multiplicative jitter in [1 - w, 1 + w]. Every input the program
   receives is drawn from one generator created from the workload seed. *)
let jitter rng w = 1.0 +. Randomness.Rng.uniform rng (-.w) w

(* A run whose own conditions were not met (a load generator that fell
   behind its schedule) yields no result. *)
exception Invalid_run of string

(* ------------------------------------------------------------------ *)
(* Operations attempted and failed                                      *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* Record one operation; a failed output check counts as a failed
   operation and is explained on stderr. *)
let check t ok fmt =
  Printf.ksprintf
    (fun msg ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        if t.failed <= 20 then prerr_endline ("perfbench: check failed: " ^ msg)
      end)
    fmt

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

(* The traced run records spans in memory — the benchmark's own spans
   around public calls plus the spans the program already writes — and
   writes them out once the run ends. *)
type tracer = { sink : Stochobs.Trace.sink; buf : Buffer.t }

let tracer () =
  let buf = Buffer.create (1 lsl 16) in
  { sink = Stochobs.Trace.make ~clock:now (Stochobs.Writer.to_buffer buf); buf }

let span tr name f = Stochobs.Trace.with_span tr.sink name f

let write_trace tr path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc tr.buf)

let read_spans tr =
  Stochobs_analysis.Trace_read.(spans (of_string (Buffer.contents tr.buf)))

(* Durations of the recorded spans called [name]. *)
let durations spans name =
  let s = Samples.create () in
  List.iter
    (fun sp ->
      if sp.Stochobs_analysis.Trace_read.name = name then
        Samples.add s (Stochobs_analysis.Trace_read.duration sp))
    spans;
  s

(* ------------------------------------------------------------------ *)
(* Metric snapshots                                                     *)

let counter_of snapshot name =
  match List.assoc_opt name snapshot with
  | Some (Stochobs.Metrics.Counter_v c) -> c
  | _ -> 0

let gauge_max snapshot name =
  match List.assoc_opt name snapshot with
  | Some (Stochobs.Metrics.Gauge_v { max; _ }) -> max
  | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Results                                                              *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* The contract metrics every workload reports (see perfbench/README.md
   for what each one means on each workload), the workload's own named
   metrics printed beside them, and — on a traced run — the per-layer
   metrics. *)
type result = {
  setup_s : float;
  op_ms : float;
  alt_op_ms : float;
  throughput_per_s : float;
  quality : float;
  ops : tally;
  named : metric list;
  layers : metric list;
}

(* Per-layer metrics a workload does not exercise read 0: that layer
   did no work on it. *)
let zero_layers names measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) measured with
      | Some m -> m
      | None -> metric name unit_ 0.0)
    names

(* Run [f] [k] times and return the median wall time with the last
   result: set-up is repeated so that its reading is a median. *)
let repeat_setup k f =
  let times = ref [] and last = ref None in
  for _ = 1 to k do
    let r, dt = timed f in
    times := dt :: !times;
    last := Some r
  done;
  match !last with
  | Some r -> (r, median_list !times)
  | None -> invalid_arg "repeat_setup: k must be positive"
