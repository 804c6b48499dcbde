module Dist = Distributions.Dist

type stop =
  | Unsupported_t1 of float
  | Density_underflow of { t : float; survival : float }
  | Non_finite of { t_prev : float; next : float }
  | Non_increasing of { t_prev : float; next : float }
  | Too_long of int

let stop_to_string = function
  | Unsupported_t1 t1 ->
      Printf.sprintf "t1 = %g outside the distribution support" t1
  | Density_underflow { t; survival } ->
      Printf.sprintf
        "density underflowed to zero at t = %g with %.3g survival mass \
         uncovered"
        t survival
  | Non_finite { t_prev; next } ->
      Printf.sprintf "recurrence produced the non-finite value %g after t = %g"
        next t_prev
  | Non_increasing { t_prev; next } ->
      Printf.sprintf
        "recurrence is not strictly increasing (%g after t = %g)" next t_prev
  | Too_long n ->
      Printf.sprintf "sequence did not reach coverage within %d elements" n

(* Eq. (11) from values already at hand: [f1 = f t_(i-1)],
   [sf2 = 1 - F t_(i-2)], [sf1 = 1 - F t_(i-1)]. *)
let step m ~f1 ~sf2 ~sf1 ~t_prev1 =
  let open Cost_model in
  (sf2 /. f1)
  +. (m.beta /. m.alpha *. ((sf1 /. f1) -. t_prev1))
  -. (m.gamma /. m.alpha)

let next m d ~t_prev2 ~t_prev1 =
  step m ~f1:(d.Dist.pdf t_prev1) ~sf2:(Dist.sf d t_prev2)
    ~sf1:(Dist.sf d t_prev1) ~t_prev1

(* Eq. (11) divides by f t_(i-1): deep in the tail the density
   underflows to 0 before the CDF reaches the coverage target (heavy
   tails, near-point masses), which would propagate inf/nan. *)
let usable_density f = f > 0.0 && not (Float.is_nan f)

let generate ?(coverage = 1.0 -. 1e-9) ?(max_len = 1000) m d ~t1 =
  let a = Dist.lower d and b = Dist.upper d in
  if not (Float.is_finite t1) || t1 <= a || t1 > b then
    Error (Unsupported_t1 t1)
  else begin
    let finish acc = Ok (Array.of_list (List.rev acc)) in
    (* Each emitted point costs one pdf and one cdf call: its survival
       is carried forward as [sf1], then [sf2]. *)
    let rec go acc len ~sf2 ~t_prev1 ~sf1 =
      if len >= max_len then Error (Too_long max_len)
      else
        let f1 = d.Dist.pdf t_prev1 in
        if not (usable_density f1) then
          Error (Density_underflow { t = t_prev1; survival = sf1 })
        else
          let t = step m ~f1 ~sf2 ~sf1 ~t_prev1 in
          if not (Float.is_finite t) then
            Error (Non_finite { t_prev = t_prev1; next = t })
          else if t <= t_prev1 then
            Error (Non_increasing { t_prev = t_prev1; next = t })
          else if t >= b then finish (b :: acc)
          else
            let f = d.Dist.cdf t in
            if f >= coverage then finish (t :: acc)
            else
              go (t :: acc) (len + 1) ~sf2:sf1 ~t_prev1:t
                ~sf1:(Dist.sf_of_cdf f)
    in
    let f = d.Dist.cdf t1 in
    if f >= coverage || t1 >= b then Ok [| t1 |]
    else
      go [ t1 ] 1 ~sf2:(Dist.sf d 0.0) ~t_prev1:t1 ~sf1:(Dist.sf_of_cdf f)
  end

(* The raw Eq. (11) values after [t_prev1], given [sf2 = 1 - F t_(i-2)]:
   one pdf and one cdf call per value. They end where the density is
   unusable; [Sequence.sanitize] treats that end as it treats an
   unusable value. *)
let rec raw_after m d ~sf2 ~t_prev1 () =
  let f1 = d.Dist.pdf t_prev1 in
  if not (usable_density f1) then Seq.Nil
  else
    let sf1 = Dist.sf d t_prev1 in
    let t = step m ~f1 ~sf2 ~sf1 ~t_prev1 in
    Seq.Cons (t, raw_after m d ~sf2:sf1 ~t_prev1:t)

let sequence_of_prefix m d prefix =
  let len = Array.length prefix in
  if len = 0 then invalid_arg "Recurrence.sequence_of_prefix: empty prefix";
  let rest () =
    let t_prev2 = if len >= 2 then prefix.(len - 2) else 0.0 in
    raw_after m d ~sf2:(Dist.sf d t_prev2) ~t_prev1:prefix.(len - 1) ()
  in
  Sequence.sanitize ~support:d.Dist.support
    (Seq.append (Array.to_seq prefix) rest)

let sequence m d ~t1 = sequence_of_prefix m d [| t1 |]
