module Sequence = Stochastic_core.Sequence
module Checkpoint = Stochastic_core.Checkpoint
module Spot_cost = Stochastic_core.Spot_cost

type outcome = Success | Timeout | Node_failure

let outcome_name = function
  | Success -> "success"
  | Timeout -> "timeout"
  | Node_failure -> "node-failure"

type attempt = {
  requested : float;
  submitted : float;
  started : float;
  wait : float;
  elapsed : float;
  outcome : outcome;
  progress_after : float;
}

type checkpoint = { params : Checkpoint.params; period : float }

let make_checkpoint ~params ~period =
  if not (Float.is_finite period) || period <= 0.0 then
    invalid_arg "Job.make_checkpoint: period must be positive and finite";
  { params; period }

let recovery_of { params; period } =
  Spot_cost.Snapshot
    {
      period;
      snapshot_cost = params.Checkpoint.checkpoint_cost;
      restore_cost = params.Checkpoint.restart_cost;
    }

type state = Waiting | Running | Done | Abandoned

type t = {
  id : int;
  nodes : int;
  duration : float;
  arrival : float;
  reservations : float array;
  recovery : Spot_cost.recovery; (* Restart without ?checkpoint *)
  mutable attempt : int;
  mutable progress : float; (* durably checkpointed work *)
  mutable failures : int; (* node-failure kills suffered *)
  mutable epoch : int; (* dispatch counter, invalidates stale events *)
  mutable submitted : float;
  mutable started : float;
  mutable state : state;
  mutable history : attempt list; (* newest first *)
  mutable finish : float;
}

let make ?checkpoint ~id ~nodes ~arrival ~duration sequence =
  if nodes <= 0 then invalid_arg "Job.make: nodes must be positive";
  if not (Float.is_finite duration) || duration <= 0.0 then
    invalid_arg "Job.make: duration must be positive and finite";
  if not (Float.is_finite arrival) || arrival < 0.0 then
    invalid_arg "Job.make: arrival must be nonnegative and finite";
  (* Materialise the prefix of the (lazy, possibly infinite) sequence
     up to the first reservation covering the true duration: those are
     the only requests this job can ever submit. With checkpointing the
     job may need extra attempts (overheads) — it then re-requests the
     last, covering reservation. *)
  let reservations =
    Sequence.prefix_until (fun r -> r >= duration) sequence
  in
  let k = Array.length reservations in
  if k = 0 || reservations.(k - 1) < duration then
    raise (Sequence.Not_covered duration);
  {
    id;
    nodes;
    duration;
    arrival;
    reservations;
    recovery = Option.fold ~none:Spot_cost.Restart ~some:recovery_of checkpoint;
    attempt = 0;
    progress = 0.0;
    failures = 0;
    epoch = 0;
    submitted = arrival;
    started = nan;
    state = Waiting;
    history = [];
    finish = nan;
  }

let id j = j.id
let nodes j = j.nodes
let duration j = j.duration
let arrival j = j.arrival
let state j = j.state
let submitted j = j.submitted
let progress j = j.progress
let failures j = j.failures
let epoch j = j.epoch
let checkpointed j =
  match j.recovery with Spot_cost.Restart -> false | Spot_cost.Snapshot _ -> true
let reservations j = Array.copy j.reservations

let request j =
  (* Past the materialised prefix (possible only with checkpointing),
     keep re-requesting the last reservation: it covers the full
     duration, so a fortiori the remaining work. *)
  j.reservations.(min j.attempt (Array.length j.reservations - 1))

(* The attempt geometry (restore, periodic snapshots, no snapshot at
   completion, progress durable in whole periods) is Spot_cost's
   kernel; a job only supplies its recovery and durable progress. *)
let geometry j =
  Spot_cost.attempt_of j.recovery ~progress:j.progress ~total:j.duration

let restore_time j = (geometry j).Spot_cost.restore

let attempt_span j =
  if j.state <> Waiting && j.state <> Running then
    invalid_arg "Job.attempt_span: job has no open attempt";
  let l = request j in
  let need = (geometry j).Spot_cost.finish_elapsed in
  if need <= l then (need, true) else (l, false)

(* Keep the work covered by the snapshots completed [elapsed] into the
   current attempt; returns how many completed. *)
let salvage j ~elapsed =
  let k = Spot_cost.snaps_by j.recovery (geometry j) ~elapsed in
  j.progress <- Spot_cost.durable j.recovery ~progress:j.progress k;
  k

let start j ~now =
  if j.state <> Waiting then invalid_arg "Job.start: job is not waiting";
  if now < j.submitted -. 1e-9 then
    invalid_arg "Job.start: cannot start before submission";
  j.started <- now;
  j.epoch <- j.epoch + 1;
  j.state <- Running

let record j ~elapsed ~outcome =
  j.history <-
    {
      requested = request j;
      submitted = j.submitted;
      started = j.started;
      wait = j.started -. j.submitted;
      elapsed;
      outcome;
      progress_after = j.progress;
    }
    :: j.history

let finish_attempt j ~now =
  if j.state <> Running then
    invalid_arg "Job.finish_attempt: job is not running";
  let span, completes = attempt_span j in
  if completes then begin
    j.progress <- j.duration;
    record j ~elapsed:span ~outcome:Success;
    j.state <- Done;
    j.finish <- now;
    true
  end
  else begin
    (* Timed out: the reservation was consumed in full. Checkpointed
       jobs keep the work covered by completed snapshots; plain jobs
       restart from scratch (the paper's execution model). *)
    let l = request j in
    if salvage j ~elapsed:l = 0 && j.attempt >= Array.length j.reservations - 1
    then
      (* Every future attempt re-requests the same last reservation
         and would gain nothing: the overheads have made the job
         impossible to finish. (Unreachable without checkpointing: the
         last reservation covers the whole duration.) *)
      raise (Sequence.Not_covered j.duration);
    record j ~elapsed:l ~outcome:Timeout;
    j.attempt <- j.attempt + 1;
    j.submitted <- now;
    j.state <- Waiting;
    false
  end

let interrupt j ~now =
  if j.state <> Running then invalid_arg "Job.interrupt: job is not running";
  let elapsed = Float.max 0.0 (now -. j.started) in
  (* Resume from the last completed snapshot; without checkpointing the
     attempt is lost entirely. The reservation index does not advance:
     the request was not too short, the node died under it. *)
  ignore (salvage j ~elapsed : int);
  record j ~elapsed ~outcome:Node_failure;
  j.failures <- j.failures + 1;
  j.state <- Waiting

let resubmit j ~at =
  if j.state <> Waiting then invalid_arg "Job.resubmit: job is not waiting";
  j.submitted <- at

let abandon j =
  if j.state <> Waiting then invalid_arg "Job.abandon: job is not waiting";
  j.state <- Abandoned

let attempts j = Array.of_list (List.rev j.history)

let finish_time j =
  if j.state <> Done then invalid_arg "Job.finish_time: job is not done";
  j.finish

let total_wait j =
  List.fold_left (fun acc a -> acc +. a.wait) 0.0 j.history

let response j = finish_time j -. j.arrival
let stretch j = response j /. j.duration
