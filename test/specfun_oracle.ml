(* Test-only oracles: the special functions as they were written before
   the per-shape constants were hoisted out of every call. [erf]/[erfc]
   re-evaluate [log_gamma 0.5], [gamma_p]/[gamma_q] their [log_gamma a]
   and [betai] its three log-gamma terms on every call; the inverses
   call those per-call forms. The library must agree with these bit for
   bit (test_specfun, test_distributions). The functions whose code
   did not change ([log_gamma], [log_beta], [normal_quantile]) are
   taken from the library. *)

let log_gamma = Numerics.Specfun.log_gamma
let log_beta = Numerics.Specfun.log_beta
let normal_quantile = Numerics.Specfun.normal_quantile
let max_iter = 500
let eps = 1e-16

(* Power-series expansion of P(a, x), converges fast for x < a + 1. *)
let gamma_p_series a x =
  let ap = ref a in
  let sum = ref (1.0 /. a) in
  let del = ref (1.0 /. a) in
  let i = ref 0 in
  let converged = ref false in
  while (not !converged) && !i < max_iter do
    incr i;
    ap := !ap +. 1.0;
    del := !del *. x /. !ap;
    sum := !sum +. !del;
    if Float.abs !del < Float.abs !sum *. eps then converged := true
  done;
  !sum *. exp ((-.x) +. (a *. log x) -. log_gamma a)

(* Lentz continued fraction for Q(a, x), converges fast for x >= a + 1. *)
let gamma_q_cf a x =
  let tiny = 1e-300 in
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. tiny) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  let i = ref 1 in
  let converged = ref false in
  while (not !converged) && !i < max_iter do
    let fi = float_of_int !i in
    let an = -.fi *. (fi -. a) in
    b := !b +. 2.0;
    d := (an *. !d) +. !b;
    if Float.abs !d < tiny then d := tiny;
    c := !b +. (an /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if Float.abs (delta -. 1.0) < eps then converged := true;
    incr i
  done;
  exp ((-.x) +. (a *. log x) -. log_gamma a) *. !h

let gamma_p a x =
  if a <= 0.0 then invalid_arg "Specfun.gamma_p: a must be positive";
  if x < 0.0 then invalid_arg "Specfun.gamma_p: x must be non-negative";
  (* stochlint: allow FLOAT_EQ — series/cf boundary: x = 0 returns the exact limit P(a, 0) = 0 *)
  if x = 0.0 then 0.0
  else if x < a +. 1.0 then gamma_p_series a x
  else 1.0 -. gamma_q_cf a x

let gamma_q a x =
  if a <= 0.0 then invalid_arg "Specfun.gamma_q: a must be positive";
  if x < 0.0 then invalid_arg "Specfun.gamma_q: x must be non-negative";
  (* stochlint: allow FLOAT_EQ — series/cf boundary: x = 0 returns the exact limit Q(a, 0) = 1 *)
  if x = 0.0 then 1.0
  else if x < a +. 1.0 then 1.0 -. gamma_p_series a x
  else gamma_q_cf a x

(* Inverse of P(a, .): Wilson–Hilferty initial guess, then safeguarded
   Newton on P(a, x) - p with the analytic derivative (gamma pdf). *)
let inverse_gamma_p a p =
  if a <= 0.0 then invalid_arg "Specfun.inverse_gamma_p: a must be positive";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Specfun.inverse_gamma_p: p must be in [0, 1]";
  (* stochlint: allow FLOAT_EQ — inverse endpoint sentinel: p = 0 maps to 0 exactly *)
  if p = 0.0 then 0.0
  (* stochlint: allow FLOAT_EQ — inverse endpoint sentinel: p = 1 maps to +inf *)
  else if p = 1.0 then infinity
  else begin
    let gln = log_gamma a in
    let a1 = a -. 1.0 in
    let lna1 = if a > 1.0 then log a1 else 0.0 in
    let afac = if a > 1.0 then exp ((a1 *. (lna1 -. 1.0)) -. gln) else 0.0 in
    (* Initial guess. *)
    let x0 =
      if a > 1.0 then begin
        (* Wilson–Hilferty via the normal quantile. *)
        let pp = if p < 0.5 then p else 1.0 -. p in
        let t = sqrt (-2.0 *. log pp) in
        let x =
          ((2.30753 +. (t *. 0.27061)) /. (1.0 +. (t *. (0.99229 +. (t *. 0.04481)))))
          -. t
        in
        let x = if p < 0.5 then -.x else x in
        Float.max 1e-3
          (a
          *. ((1.0 -. (1.0 /. (9.0 *. a)) +. (x /. (3.0 *. sqrt a))) ** 3.0))
      end
      else begin
        let t = 1.0 -. (a *. (0.253 +. (a *. 0.12))) in
        if p < t then (p /. t) ** (1.0 /. a)
        else 1.0 -. log (1.0 -. ((p -. t) /. (1.0 -. t)))
      end
    in
    let x = ref x0 in
    for _ = 1 to 16 do
      if !x > 0.0 then begin
        let err = gamma_p a !x -. p in
        let t =
          if a > 1.0 then afac *. exp ((-. (!x -. a1)) +. (a1 *. (log !x -. lna1)))
          else exp ((-. !x) +. (a1 *. log !x) -. gln)
        in
        if t > 0.0 then begin
          let u = err /. t in
          (* Halley correction, as in Numerical Recipes. *)
          let dx = u /. (1.0 -. (0.5 *. Float.min 1.0 (u *. ((a1 /. !x) -. 1.0)))) in
          x := !x -. dx;
          if !x <= 0.0 then x := 0.5 *. (!x +. dx)
        end
      end
    done;
    (* Newton can stall deep in the tails where the derivative
       underflows; verify and fall back to a bracketed bisection,
       which is slow but unconditionally convergent. *)
    let residual = gamma_p a !x -. p in
    if Float.abs residual > 1e-12 then begin
      let f y = gamma_p a y -. p in
      let lo = ref 0.0 and hi = ref (Float.max (2.0 *. !x) (2.0 *. a)) in
      while f !hi < 0.0 && !hi < 1e12 do
        hi := !hi *. 2.0
      done;
      if f !hi >= 0.0 then begin
        (* 200 bisection steps resolve to full double precision. *)
        for _ = 1 to 200 do
          let mid = 0.5 *. (!lo +. !hi) in
          if f mid < 0.0 then lo := mid else hi := mid
        done;
        x := 0.5 *. (!lo +. !hi)
      end
    end;
    !x
  end

let erf x =
  (* stochlint: allow FLOAT_EQ — erf(0) = 0 exactly; avoids the gamma_p singularity at 0 *)
  if x = 0.0 then 0.0
  else if x > 0.0 then gamma_p 0.5 (x *. x)
  else -.gamma_p 0.5 (x *. x)

let erfc x =
  if x >= 0.0 then gamma_q 0.5 (x *. x) else 1.0 +. gamma_p 0.5 (x *. x)

(* Lentz continued fraction for the incomplete beta function. *)
let betacf a b x =
  let tiny = 1e-300 in
  let qab = a +. b in
  let qap = a +. 1.0 in
  let qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if Float.abs !d < tiny then d := tiny;
  d := 1.0 /. !d;
  let h = ref !d in
  let m = ref 1 in
  let converged = ref false in
  while (not !converged) && !m < max_iter do
    let fm = float_of_int !m in
    let m2 = 2.0 *. fm in
    (* Even step. *)
    let aa = fm *. (b -. fm) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1.0 +. (aa *. !d);
    if Float.abs !d < tiny then d := tiny;
    c := 1.0 +. (aa /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1.0 /. !d;
    h := !h *. !d *. !c;
    (* Odd step. *)
    let aa = -.(a +. fm) *. (qab +. fm) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1.0 +. (aa *. !d);
    if Float.abs !d < tiny then d := tiny;
    c := 1.0 +. (aa /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if Float.abs (delta -. 1.0) < eps then converged := true;
    incr m
  done;
  !h

let betai a b x =
  if a <= 0.0 || b <= 0.0 then
    invalid_arg "Specfun.betai: a and b must be positive";
  if x < 0.0 || x > 1.0 then invalid_arg "Specfun.betai: x must be in [0, 1]";
  (* stochlint: allow FLOAT_EQ — betai endpoint: x = 0 returns the exact limit 0 *)
  if x = 0.0 then 0.0
  (* stochlint: allow FLOAT_EQ — betai endpoint: x = 1 returns the exact limit 1 *)
  else if x = 1.0 then 1.0
  else begin
    let bt =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x)
        +. (b *. log (1.0 -. x)))
    in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then bt *. betacf a b x /. a
    else 1.0 -. (bt *. betacf b a (1.0 -. x) /. b)
  end

(* Inverse of the regularized incomplete beta function: initial guess
   from Abramowitz & Stegun 26.5.22 (or the small-parameter split), then
   Newton iterations clamped to (0, 1). *)
let inverse_betai a b p =
  if a <= 0.0 || b <= 0.0 then
    invalid_arg "Specfun.inverse_betai: a and b must be positive";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Specfun.inverse_betai: p must be in [0, 1]";
  (* stochlint: allow FLOAT_EQ — inverse endpoint sentinel: p = 0 maps to 0 exactly *)
  if p = 0.0 then 0.0
  (* stochlint: allow FLOAT_EQ — inverse endpoint sentinel: p = 1 maps to 1 exactly *)
  else if p = 1.0 then 1.0
  else begin
    let x0 =
      if a >= 1.0 && b >= 1.0 then begin
        let t = normal_quantile p in
        let al = ((t *. t) -. 3.0) /. 6.0 in
        let h = 2.0 /. ((1.0 /. ((2.0 *. a) -. 1.0)) +. (1.0 /. ((2.0 *. b) -. 1.0))) in
        let w =
          (t *. sqrt (al +. h) /. h)
          -. (((1.0 /. ((2.0 *. b) -. 1.0)) -. (1.0 /. ((2.0 *. a) -. 1.0)))
             *. (al +. (5.0 /. 6.0) -. (2.0 /. (3.0 *. h))))
        in
        a /. (a +. (b *. exp (2.0 *. w)))
      end
      else begin
        let lna = log (a /. (a +. b)) in
        let lnb = log (b /. (a +. b)) in
        let t = exp (a *. lna) /. a in
        let u = exp (b *. lnb) /. b in
        let w = t +. u in
        if p < t /. w then (a *. w *. p) ** (1.0 /. a)
        else 1.0 -. ((b *. w *. (1.0 -. p)) ** (1.0 /. b))
      end
    in
    let afac = -.log_beta a b in
    let a1 = a -. 1.0 and b1 = b -. 1.0 in
    let x = ref x0 in
    if !x <= 0.0 then x := 1e-12;
    if !x >= 1.0 then x := 1.0 -. 1e-12;
    for _ = 1 to 16 do
      if !x > 0.0 && !x < 1.0 then begin
        let err = betai a b !x -. p in
        let t = exp ((a1 *. log !x) +. (b1 *. log (1.0 -. !x)) +. afac) in
        if t > 0.0 then begin
          let u = err /. t in
          let dx =
            u /. (1.0 -. (0.5 *. Float.min 1.0 (u *. ((a1 /. !x) -. (b1 /. (1.0 -. !x))))))
          in
          x := !x -. dx;
          if !x <= 0.0 then x := 0.5 *. (!x +. dx);
          if !x >= 1.0 then x := 0.5 *. (!x +. dx +. 1.0)
        end
      end
    done;
    (* Bracketed bisection fallback for tail cases where Newton
       stalls (see inverse_gamma_p). *)
    let residual = betai a b !x -. p in
    if Float.abs residual > 1e-12 then begin
      let f y = betai a b y -. p in
      let lo = ref 0.0 and hi = ref 1.0 in
      for _ = 1 to 200 do
        let mid = 0.5 *. (!lo +. !hi) in
        if f mid < 0.0 then lo := mid else hi := mid
      done;
      x := 0.5 *. (!lo +. !hi)
    end;
    !x
  end
