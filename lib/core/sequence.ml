type t = float Seq.t

exception Not_covered of float

let validate_increasing ts =
  let prev = ref 0.0 in
  List.iter
    (fun x ->
      if not (Float.is_finite x && x > !prev) then
        invalid_arg
          "Sequence.of_list: reservations must be positive, finite and \
           strictly increasing";
      prev := x)
    ts

let of_list ts =
  validate_increasing ts;
  List.to_seq ts

let of_array ts =
  let ts = Array.copy ts in
  validate_increasing (Array.to_list ts);
  Array.to_seq ts

let take n s = List.of_seq (Seq.take n s)

let prefix_until ?(limit = 100_000) stop s =
  let out = ref [] in
  let count = ref 0 in
  let rec go s =
    if !count >= limit then ()
    else
      match Seq.uncons s with
      | None -> ()
      | Some (x, rest) ->
          incr count;
          out := x :: !out;
          if not (stop x) then go rest
  in
  go s;
  Array.of_list (List.rev !out)

let is_strictly_increasing n s =
  let prev = ref 0.0 in
  let ok = ref true in
  Seq.iter
    (fun x ->
      if x <= !prev then ok := false;
      prev := x)
    (Seq.take n s);
  !ok

let sanitize ~support s =
  let double prev = if prev > 0.0 then 2.0 *. prev else 1.0 in
  match support with
  | Distributions.Dist.Unbounded _ ->
      (* State: (last emitted value, remaining raw sequence or None once
         we have switched to pure doubling). *)
      let rec step (prev, raw) () =
        match raw with
        | None ->
            let v = double prev in
            Seq.Cons (v, step (v, None))
        | Some raw -> (
            match Seq.uncons raw with
            | None ->
                let v = double prev in
                Seq.Cons (v, step (v, None))
            | Some (x, rest) ->
                if Float.is_finite x && x > prev && x > 0.0 then
                  Seq.Cons (x, step (x, Some rest))
                else begin
                  (* Raw value unusable: abandon the raw sequence. *)
                  let v = double prev in
                  Seq.Cons (v, step (v, None))
                end)
      in
      step (0.0, Some s)
  | Distributions.Dist.Bounded (a, b) ->
      let near_b = b -. (1e-9 *. (b -. a)) in
      let rec step (prev, raw) () =
        if prev >= b then Seq.Nil
        else
          match raw with
          | None -> Seq.Cons (b, step (b, None))
          | Some raw -> (
              match Seq.uncons raw with
              | None -> Seq.Cons (b, step (b, None))
              | Some (x, rest) ->
                  if not (Float.is_finite x && x > prev && x > 0.0) then
                    (* Unusable value: finish with the upper bound. *)
                    Seq.Cons (b, step (b, None))
                  else if x >= near_b then Seq.Cons (b, step (b, None))
                  else Seq.Cons (x, step (x, Some rest)))
      in
      step (0.0, Some s)

let cost_of_run ?(max_steps = 100_000) m s t =
  let prefix = Numerics.Kahan.create () in
  let rec go k s =
    if k > max_steps then raise (Not_covered t);
    match Seq.uncons s with
    | None -> raise (Not_covered t)
    | Some (tk, rest) ->
        if t <= tk then begin
          let open Cost_model in
          ( k,
            Numerics.Kahan.sum prefix
            +. (m.alpha *. tk)
            +. (m.beta *. t)
            +. m.gamma )
        end
        else begin
          let open Cost_model in
          Numerics.Kahan.add prefix
            ((m.alpha *. tk) +. (m.beta *. tk) +. m.gamma);
          go (k + 1) rest
        end
  in
  go 1 s

type presampled = { sorted : float array; sum : float }

let presampled_of_sorted sorted =
  { sorted; sum = Numerics.Kahan.sum_array sorted }

let presample samples =
  let sorted = Array.copy samples in
  Numerics.Stats.sort sorted;
  presampled_of_sorted sorted

(* First index in [lo, hi) whose sample exceeds [t], or [hi]. *)
let upper_bound sorted t lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if sorted.(mid) <= t then lo := mid + 1 else hi := mid
  done;
  !lo

(* Eq. (13) regrouped by reservation: the c_k samples in (t_(k-1), t_k]
   each pay P_(k-1) + alpha t_k + gamma plus their own beta x, so
   sum C = sum_k c_k (P_(k-1) + alpha t_k + gamma) + beta sum x. *)
let mean_cost ?(max_steps = 100_000) m { sorted; sum } s =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Sequence.mean_cost: empty sample";
  let open Cost_model in
  let acc = Numerics.Kahan.create () in
  (* failed tracks P_(k-1), the prefix sum of failed-reservation costs. *)
  let failed = Numerics.Kahan.create () in
  let rec go k idx s =
    if idx < n then begin
      if k > max_steps then raise (Not_covered sorted.(idx));
      match Seq.uncons s with
      | None -> raise (Not_covered sorted.(idx))
      | Some (tk, rest) ->
          (* The guard keeps a leading nan, which no t_k covers, out of
             the search. *)
          let next =
            if sorted.(idx) <= tk then upper_bound sorted tk (idx + 1) n
            else idx
          in
          if next > idx then begin
            let c = float_of_int (next - idx) in
            let per_sample =
              Numerics.Kahan.sum failed +. (m.alpha *. tk) +. m.gamma
            in
            (* c * per_sample enters exactly, as hi + lo, so that the
               compensated total matches summing the c equal terms one
               by one. *)
            let hi = c *. per_sample in
            Numerics.Kahan.add acc hi;
            if Float.is_finite hi then
              Numerics.Kahan.add acc (Float.fma c per_sample (-.hi))
          end;
          if next < n then begin
            Numerics.Kahan.add failed
              ((m.alpha *. tk) +. (m.beta *. tk) +. m.gamma);
            go (k + 1) next rest
          end
    end
  in
  go 1 0 s;
  Numerics.Kahan.add acc (m.beta *. sum);
  Numerics.Kahan.sum acc /. float_of_int n

let mean_cost_sorted ?max_steps m s samples =
  if Array.length samples = 0 then
    invalid_arg "Sequence.mean_cost_sorted: empty sample";
  mean_cost ?max_steps m (presampled_of_sorted samples) s

let pp_prefix n fmt s =
  let items = take (n + 1) s in
  let shown = if List.length items > n then List.filteri (fun i _ -> i < n) items else items in
  Format.fprintf fmt "(%s%s)"
    (String.concat ", " (List.map (Printf.sprintf "%g") shown))
    (if List.length items > n then ", ..." else "")
