type t = { values : float array; probs : float array }

let make pairs =
  Array.iter
    (fun (v, p) ->
      if not (Float.is_finite v) then
        invalid_arg "Discrete.make: non-finite support value";
      if not (Float.is_finite p) then
        invalid_arg "Discrete.make: non-finite probability";
      if p < 0.0 then invalid_arg "Discrete.make: negative probability")
    pairs;
  let rec increasing i =
    i >= Array.length pairs
    || (fst pairs.(i - 1) < fst pairs.(i) && increasing (i + 1))
  in
  (* Discretizations arrive strictly increasing, which is already the
     unique sorted order. Otherwise sort by value, then probability, so
     that duplicates merge in the same order whatever the input order. *)
  let pairs =
    if increasing 1 then pairs
    else begin
      let pairs = Array.copy pairs in
      Array.sort
        (fun (v1, p1) (v2, p2) ->
          match Float.compare v1 v2 with 0 -> Float.compare p1 p2 | c -> c)
        pairs;
      pairs
    end
  in
  (* Merge duplicates, drop zero-probability points. Flat arrays, not
     a list of boxed pairs: on 1000 points the list costs ~5x more,
     as much as the DP it feeds. *)
  let n = Array.length pairs in
  let values = Array.make n 0.0 and probs = Array.make n 0.0 in
  let k = ref 0 in
  Array.iter
    (fun (v, p) ->
      if p > 0.0 then
        if !k > 0 && values.(!k - 1) = v then
          probs.(!k - 1) <- probs.(!k - 1) +. p
        else begin
          values.(!k) <- v;
          probs.(!k) <- p;
          incr k
        end)
    pairs;
  if !k = 0 then
    invalid_arg "Discrete.make: no support point with positive probability";
  let probs = Array.sub probs 0 !k in
  let total = Array.fold_left ( +. ) 0.0 probs in
  if total > 1.0 +. 1e-9 then
    invalid_arg "Discrete.make: total probability mass exceeds 1";
  { values = Array.sub values 0 !k; probs }

let size d = Array.length d.values
let total_mass d = Numerics.Kahan.sum_array d.probs

let normalize d =
  let z = total_mass d in
  { d with probs = Array.map (fun p -> p /. z) d.probs }

let mean d =
  let z = total_mass d in
  let acc = Numerics.Kahan.create () in
  Array.iteri (fun i v -> Numerics.Kahan.add acc (v *. d.probs.(i))) d.values;
  Numerics.Kahan.sum acc /. z

let variance d =
  let z = total_mass d in
  let m = mean d in
  let acc = Numerics.Kahan.create () in
  Array.iteri
    (fun i v ->
      let dv = v -. m in
      Numerics.Kahan.add acc (dv *. dv *. d.probs.(i)))
    d.values;
  Numerics.Kahan.sum acc /. z

let cdf d t =
  let z = total_mass d in
  let acc = Numerics.Kahan.create () in
  let n = size d in
  let i = ref 0 in
  while !i < n && d.values.(!i) <= t do
    Numerics.Kahan.add acc d.probs.(!i);
    incr i
  done;
  Numerics.Kahan.sum acc /. z

let quantile d x =
  if x < 0.0 || x > 1.0 then invalid_arg "Discrete.quantile: x must be in [0, 1]";
  let z = total_mass d in
  let target = x *. z in
  let acc = ref 0.0 in
  let n = size d in
  let result = ref d.values.(n - 1) in
  (try
     for i = 0 to n - 1 do
       acc := !acc +. d.probs.(i);
       if !acc >= target -. 1e-15 then begin
         result := d.values.(i);
         raise Exit
       end
     done
   with Exit -> ());
  !result

let sample d rng = quantile d (Randomness.Rng.float rng)

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Discrete.of_samples: empty sample";
  let n = float_of_int (Array.length xs) in
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun x ->
      let c = Option.value ~default:0 (Hashtbl.find_opt tbl x) in
      Hashtbl.replace tbl x (c + 1))
    xs;
  let pairs =
    Hashtbl.fold (fun v c acc -> (v, float_of_int c /. n) :: acc) tbl []
  in
  make (Array.of_list pairs)

let to_dist d =
  let d = normalize d in
  let n = size d in
  let lo = d.values.(0) and hi = d.values.(n - 1) in
  let pmf t =
    (* Probability mass at exact support points. *)
    let rec find i =
      if i >= n then 0.0
      else if d.values.(i) = t then d.probs.(i)
      else if d.values.(i) > t then 0.0
      else find (i + 1)
    in
    find 0
  in
  let m = mean d in
  let v = variance d in
  let cm tau =
    let num = Numerics.Kahan.create () and den = Numerics.Kahan.create () in
    for i = 0 to n - 1 do
      if d.values.(i) > tau then begin
        Numerics.Kahan.add num (d.values.(i) *. d.probs.(i));
        Numerics.Kahan.add den d.probs.(i)
      end
    done;
    let den = Numerics.Kahan.sum den in
    if den <= 0.0 then hi else Numerics.Kahan.sum num /. den
  in
  {
    Dist.name = Printf.sprintf "Discrete(n=%d)" n;
    support = Dist.Bounded (lo, hi);
    pdf = pmf;
    cdf = cdf d;
    quantile = quantile d;
    mean = m;
    variance = v;
    sample = sample d;
    conditional_mean = cm;
  }
