type tier = On_demand | Spot

let tier_name = function On_demand -> "on-demand" | Spot -> "spot"

type recovery =
  | Restart
  | Snapshot of { period : float; snapshot_cost : float; restore_cost : float }

type regime = { price_ratio : float; revocation_rate : float; recovery : recovery }

let is_finite x = Float.is_finite x

type regime_error = { field : string; detail : string }

let check_regime ?(recovery = Restart) ~price_ratio ~revocation_rate () =
  let bad field fmt x = Error { field; detail = Printf.sprintf fmt x } in
  if not (is_finite price_ratio && price_ratio > 0.0 && price_ratio <= 1.0) then
    bad "price_ratio" "must be finite in (0, 1], got %g" price_ratio
  else if not (is_finite revocation_rate && revocation_rate >= 0.0) then
    bad "revocation_rate" "must be finite and >= 0, got %g" revocation_rate
  else
    match recovery with
    | Snapshot { period; _ } when not (is_finite period && period > 0.0) ->
        bad "checkpoint_period" "must be finite and > 0, got %g" period
    | Snapshot { snapshot_cost; _ }
      when not (is_finite snapshot_cost && snapshot_cost >= 0.0) ->
        bad "checkpoint_cost" "must be finite and >= 0, got %g" snapshot_cost
    | Snapshot { restore_cost; _ }
      when not (is_finite restore_cost && restore_cost >= 0.0) ->
        bad "restore_cost" "must be finite and >= 0, got %g" restore_cost
    | Restart | Snapshot _ -> Ok { price_ratio; revocation_rate; recovery }

let make_regime ?recovery ~price_ratio ~revocation_rate () =
  match check_regime ?recovery ~price_ratio ~revocation_rate () with
  | Ok regime -> regime
  | Error { field; detail } ->
      invalid_arg (Printf.sprintf "Spot_cost.make_regime: %s %s" field detail)

let on_demand_only = { price_ratio = 1.0; revocation_rate = 0.0; recovery = Restart }

type plan = { lengths : float array; tiers : tier array }

let make_plan ~lengths ~tiers =
  let n = Array.length lengths in
  if n = 0 then invalid_arg "Spot_cost.make_plan: empty plan";
  if Array.length tiers <> n then
    invalid_arg "Spot_cost.make_plan: lengths and tiers differ in length";
  Array.iter
    (fun l ->
      if not (is_finite l && l > 0.0) then
        invalid_arg "Spot_cost.make_plan: lengths must be finite and positive")
    lengths;
  { lengths = Array.copy lengths; tiers = Array.copy tiers }

let strictly_increasing plan =
  let prev = ref 0.0 in
  Array.for_all
    (fun l ->
      let ok = l > !prev in
      prev := l;
      ok)
    plan.lengths

let uniform_plan tier lengths =
  make_plan ~lengths ~tiers:(Array.make (Array.length lengths) tier)

let spot_slots plan =
  Array.fold_left (fun acc t -> match t with Spot -> acc + 1 | On_demand -> acc) 0 plan.tiers

(* Past the plan, extend by doubling the last length on the reliable
   tier: an on-demand reservation at least as long as the remaining
   work always finishes, so every walk terminates. *)
let slot plan k =
  if k < 0 then invalid_arg "Spot_cost.slot: negative index";
  let n = Array.length plan.lengths in
  if k < n then (plan.lengths.(k), plan.tiers.(k))
  else (Float.ldexp plan.lengths.(n - 1) (k - n + 1), On_demand)

let to_sequence plan =
  let n = Array.length plan.lengths in
  let rec ext last () =
    let v = last *. 2.0 in
    Seq.Cons (v, ext v)
  in
  let rec walk k () =
    if k < n then Seq.Cons (plan.lengths.(k), walk (k + 1))
    else ext plan.lengths.(n - 1) ()
  in
  walk 0

let price regime = function On_demand -> 1.0 | Spot -> regime.price_ratio

(* Deterministic geometry of one attempt: what it costs in elapsed
   time to finish from [progress] durable hours of a [total]-hour job
   under a recovery discipline. Scheduler.Job uses it too. *)
type attempt = { restore : float; snaps_to_finish : int; finish_elapsed : float }

let attempt_of recovery ~progress ~total =
  match recovery with
  | Restart -> { restore = 0.0; snaps_to_finish = 0; finish_elapsed = total }
  | Snapshot { period; snapshot_cost; restore_cost } ->
      let restore = if progress > 0.0 then restore_cost else 0.0 in
      let rem = total -. progress in
      let snaps = max 0 (int_of_float (ceil (rem /. period)) - 1) in
      {
        restore;
        snaps_to_finish = snaps;
        finish_elapsed = restore +. rem +. (snapshot_cost *. float_of_int snaps);
      }

(* Snapshots completed [elapsed] hours into an attempt; each one makes
   a further [period] of work durable. Capped at [snaps_to_finish]
   (provable, but cheap to enforce). *)
let snaps_by recovery a ~elapsed =
  match recovery with
  | Restart -> 0
  | Snapshot { period; snapshot_cost; _ } ->
      let c =
        int_of_float (floor ((elapsed -. a.restore) /. (period +. snapshot_cost)))
      in
      max 0 (min c a.snaps_to_finish)

let durable recovery ~progress c =
  match recovery with
  | Restart -> progress
  | Snapshot { period; _ } -> progress +. (period *. float_of_int c)

(* Eq. (1) bill of a reservation that ran to completion or expiry. *)
let bill (m : Cost_model.t) p ~length ~elapsed =
  (p *. m.alpha *. length) +. (m.beta *. elapsed) +. m.gamma

type outcome = { billed : float; progress : float; finished : bool; revoked : bool }

let slot_outcome regime m ~tier ~length ~progress ~total ~revocation =
  if progress < 0.0 then invalid_arg "Spot_cost.slot_outcome: negative progress";
  if not (total > progress) then
    invalid_arg "Spot_cost.slot_outcome: total must exceed progress";
  if not (length > 0.0) then invalid_arg "Spot_cost.slot_outcome: non-positive length";
  if revocation < 0.0 then invalid_arg "Spot_cost.slot_outcome: negative revocation";
  let open Cost_model in
  let p = price regime tier in
  let revocation = match tier with On_demand -> infinity | Spot -> revocation in
  let a = attempt_of regime.recovery ~progress ~total in
  if a.finish_elapsed <= length && a.finish_elapsed <= revocation then
    {
      billed = bill m p ~length ~elapsed:a.finish_elapsed;
      progress = total;
      finished = true;
      revoked = false;
    }
  else if revocation < length then
    (* Revoked mid-attempt: pay-for-use billing, keep durable snapshots. *)
    let c = snaps_by regime.recovery a ~elapsed:revocation in
    {
      billed = (((p *. m.alpha) +. m.beta) *. revocation) +. m.gamma;
      progress = durable regime.recovery ~progress c;
      finished = false;
      revoked = true;
    }
  else
    (* Expired: the reservation ran out before the job finished. *)
    let c = snaps_by regime.recovery a ~elapsed:length in
    {
      billed = bill m p ~length ~elapsed:length;
      progress = durable regime.recovery ~progress c;
      finished = false;
      revoked = false;
    }

let is_degenerate regime =
  match regime.recovery with
  | Snapshot _ -> false
  | Restart ->
      (* Exact degenerate-regime detection: price 1 and rate 0 select
         the bit-for-bit Eq. (1) fast path. *)
      (* stochlint: allow FLOAT_EQ — intentional exact sentinel values *)
      regime.price_ratio = 1.0 && regime.revocation_rate = 0.0

(* Expected cost of running a job of known size [t] under [plan],
   solved exactly by backward recursion over (reservation index,
   durable snapshot count) with closed-form exponential revocation
   windows. Branches with reach weight below [prune] contribute
   nothing detectable and are cut to bound the window walks. *)
let cost_for_total regime m plan t =
  let open Cost_model in
  let lam_spot = regime.revocation_rate in
  let period, sigma =
    match regime.recovery with
    | Restart -> (infinity, 0.0)
    | Snapshot s -> (s.period, s.snapshot_cost)
  in
  let prune = 1e-13 in
  let n = Array.length plan.lengths in
  let max_k = n + 128 in
  let memo : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let rec go k j =
    let key = (k, j) in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
        let v = compute k j in
        Hashtbl.replace memo key v;
        v
  and compute k j =
    if k >= max_k then infinity
    else
      let progress =
        match regime.recovery with
        | Restart -> 0.0
        | Snapshot _ -> float_of_int j *. period
      in
      if progress >= t then 0.0
      else
        let length, tier = slot plan k in
        let p = price regime tier in
        let lam = match tier with On_demand -> 0.0 | Spot -> lam_spot in
        let a = attempt_of regime.recovery ~progress ~total:t in
        let e_fin = a.finish_elapsed in
        (* Rate 0 selects the deterministic (revocation-free) closed
           form; any positive rate takes the exponential-window branch. *)
        (* stochlint: allow FLOAT_EQ — intentional exact zero-rate sentinel *)
        if lam = 0.0 then
          if e_fin <= length then bill m p ~length ~elapsed:e_fin
          else
            let c = snaps_by regime.recovery a ~elapsed:length in
            bill m p ~length ~elapsed:length +. go (k + 1) (j + c)
        else begin
          let m_lim = min e_fin length in
          let acc = ref 0.0 in
          if e_fin <= length then
            (* Success: the job finishes at e_fin unless revoked first. *)
            acc :=
              exp (-.lam *. e_fin) *. bill m p ~length ~elapsed:e_fin
          else begin
            (* Expiry: survive to the reservation end, job unfinished. *)
            let pe = exp (-.lam *. length) in
            let c = snaps_by regime.recovery a ~elapsed:length in
            acc := !acc +. (pe *. bill m p ~length ~elapsed:length);
            if pe > prune then acc := !acc +. (pe *. go (k + 1) (j + c))
          end;
          (* Revocation windows: a revocation s hours in, with exactly c
             snapshots durable, lands in
             [restore + c (period + sigma), restore + (c+1) (period + sigma))
             (window 0 starts at 0). Pay-for-use billing integrates
             lam e^(-lam s) ((p alpha + beta) s + gamma) in closed form. *)
          let crate = (p *. m.alpha) +. m.beta in
          let inv = 1.0 /. lam in
          let c = ref 0 in
          let continue = ref true in
          while !continue do
            let lo =
              if !c = 0 then 0.0
              else a.restore +. (float_of_int !c *. (period +. sigma))
            in
            if lo >= m_lim then continue := false
            else begin
              let hi = min m_lim (a.restore +. (float_of_int (!c + 1) *. (period +. sigma))) in
              let e_lo = exp (-.lam *. lo) and e_hi = exp (-.lam *. hi) in
              let prob = e_lo -. e_hi in
              let s_int = ((lo +. inv) *. e_lo) -. ((hi +. inv) *. e_hi) in
              acc := !acc +. (crate *. s_int) +. (m.gamma *. prob);
              if prob > prune then begin
                let cc = min !c a.snaps_to_finish in
                acc := !acc +. (prob *. go (k + 1) (j + cc))
              end;
              incr c;
              if hi >= m_lim || e_hi < prune then continue := false
            end
          done;
          !acc
        end
  in
  go 0 0

(* Midpoint equal-probability grid: values at quantile
   (F(b) (i + 1/2) / n). Unlike the DP's right-endpoint grid
   (Discretize.run), midpoints are second-order accurate, which keeps
   the discretization bias well inside the Monte-Carlo validation
   tolerance. *)
let evaluator_general ~disc_n ~eps regime m d =
  let b = Discretize.truncation_point ~eps d in
  let fb = d.Distributions.Dist.cdf b in
  let n = float_of_int disc_n in
  let values =
    Array.init disc_n (fun i ->
        d.Distributions.Dist.quantile (fb *. (float_of_int i +. 0.5) /. n))
  in
  let w = 1.0 /. n in
  fun plan ->
    let acc = Numerics.Kahan.create () in
    Array.iter
      (fun v -> if v > 0.0 then Numerics.Kahan.add acc (w *. cost_for_total regime m plan v))
      values;
    Numerics.Kahan.sum acc

let evaluator ?(disc_n = 2000) ?(eps = 1e-9) regime m d =
  if disc_n <= 0 then invalid_arg "Spot_cost.evaluator: disc_n must be positive";
  if not (eps > 0.0 && eps < 1.0) then
    invalid_arg "Spot_cost.evaluator: eps must be in (0, 1)";
  if is_degenerate regime then begin
    (* The Eq. (4) series assumes increasing reservation lengths
       (success at slot k means t <= t_k); flat chunked plans need the
       walk-based recursion even in the degenerate regime. *)
    let general = lazy (evaluator_general ~disc_n ~eps regime m d) in
    fun plan ->
      if strictly_increasing plan then Expected_cost.exact m d (to_sequence plan)
      else (Lazy.force general) plan
  end
  else evaluator_general ~disc_n ~eps regime m d

let expected_cost ?disc_n ?eps regime m d plan = (evaluator ?disc_n ?eps regime m d) plan
