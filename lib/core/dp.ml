module Discrete = Distributions.Discrete
module Dist = Distributions.Dist

type solution = { reservations : float array; expected_cost : float }

let solve m d =
  let d = Discrete.normalize d in
  let v = d.Discrete.values and f = d.Discrete.probs in
  let n = Array.length v in
  let open Cost_model in
  (* Suffix sums: s.(i) = sum_(k>=i) f_k, mv.(i) = sum_(k>=i) f_k v_k,
     with index n meaning the empty suffix. *)
  let s = Array.make (n + 1) 0.0 in
  let mv = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    s.(i) <- s.(i + 1) +. f.(i);
    mv.(i) <- mv.(i + 1) +. (f.(i) *. v.(i))
  done;
  (* w.(i) = S_i * E*_i (unconditional weight of the optimal suffix
     policy), w.(n) = 0. choice.(i) = arg-min j, the smallest on ties. *)
  let w = Array.make (n + 1) 0.0 in
  let choice = Array.make n 0 in
  (* Up to the term beta mv_i shared by every j, the cost of choice j
     at state i is the line a_j x + b_j at x = s_i, with slope
     a_j = alpha v_j + gamma and intercept
     b_j = beta v_j s_(j+1) + w_(j+1) - beta mv_(j+1). *)
  let a = Array.init n (fun j -> (m.alpha *. v.(j)) +. m.gamma) in
  let b = Array.make n 0.0 in
  let cand i j =
    (a.(j) *. s.(i))
    +. (m.beta *. (mv.(i) -. mv.(j + 1)))
    +. (m.beta *. v.(j) *. s.(j + 1))
    +. w.(j + 1)
  in
  (* The lower envelope of lines j >= i is kept in [hull.(0 .. top-1)],
     slopes decreasing (so j decreasing) upwards. Lines arrive in that
     order (j = i at state i) and queries s_i only grow, so the arg-min
     moves up the stack: [ptr] never goes back. *)
  let hull = Array.make n 0 and top = ref 0 and ptr = ref 0 in
  (* [redundant l1 l2 l3] (slopes a1 > a2 > a3): line l2 is never
     strictly below both neighbours, i.e. l1 and l3 cross at or left
     of where l1 and l2 do. Dropping it on equality hands the tie to
     l3, the smaller j. *)
  let redundant l1 l2 l3 =
    (b.(l3) -. b.(l1)) *. (a.(l1) -. a.(l2))
    <= (b.(l2) -. b.(l1)) *. (a.(l1) -. a.(l3))
  in
  for i = n - 1 downto 0 do
    b.(i) <- (m.beta *. v.(i) *. s.(i + 1)) +. w.(i + 1) -. (m.beta *. mv.(i + 1));
    (* Push line i. Equal slopes (possible once rounded): the smaller
       intercept dominates, the newer (smaller j) line on a tie. *)
    let keep =
      if !top > 0 && a.(hull.(!top - 1)) = a.(i) then
        if b.(i) <= b.(hull.(!top - 1)) then (decr top; true) else false
      else true
    in
    if keep then begin
      while !top >= 2 && redundant hull.(!top - 2) hull.(!top - 1) i do
        decr top
      done;
      hull.(!top) <- i;
      incr top;
      (* In exact arithmetic the arg-min line of state i + 1 survives
         the push: line i lies above it at s_(i+1). Rounding can still
         drop it when that margin is below an ulp of the intercepts. *)
      if !ptr >= !top then ptr := !top - 1
    end;
    (* Walk up while the next (smaller-j) line is no worse at s_i,
       comparing the exact candidate costs. *)
    while !ptr + 1 < !top && cand i hull.(!ptr + 1) <= cand i hull.(!ptr) do
      incr ptr
    done;
    let j = hull.(!ptr) in
    w.(i) <- cand i j;
    choice.(i) <- j
  done;
  (* Backtrack: from state 0, reserve v_(choice.(0)), then continue
     from the next uncovered support point. *)
  let rec collect i acc =
    if i >= n then List.rev acc
    else begin
      let j = choice.(i) in
      collect (j + 1) (v.(j) :: acc)
    end
  in
  { reservations = Array.of_list (collect 0 []); expected_cost = w.(0) }

let sequence_for m d discrete =
  let sol = solve m discrete in
  Sequence.sanitize ~support:d.Dist.support (Array.to_seq sol.reservations)

let expected_cost_brute m d reservations =
  let d = Discrete.normalize d in
  let v = d.Discrete.values and f = d.Discrete.probs in
  let n = Array.length v in
  let k = Array.length reservations in
  if k = 0 then invalid_arg "Dp.expected_cost_brute: empty sequence";
  for i = 1 to k - 1 do
    if reservations.(i) <= reservations.(i - 1) then
      invalid_arg "Dp.expected_cost_brute: sequence must be increasing"
  done;
  if reservations.(k - 1) < v.(n - 1) then
    invalid_arg "Dp.expected_cost_brute: last reservation must cover v_n";
  let open Cost_model in
  let acc = Numerics.Kahan.create () in
  for i = 0 to n - 1 do
    (* Cost of running a job of duration v_i through the sequence. *)
    let cost = ref 0.0 in
    let j = ref 0 in
    while reservations.(!j) < v.(i) do
      cost :=
        !cost
        +. (m.alpha *. reservations.(!j))
        +. (m.beta *. reservations.(!j))
        +. m.gamma;
      incr j
    done;
    cost :=
      !cost
      +. (m.alpha *. reservations.(!j))
      +. (m.beta *. v.(i))
      +. m.gamma;
    Numerics.Kahan.add acc (f.(i) *. !cost)
  done;
  Numerics.Kahan.sum acc
