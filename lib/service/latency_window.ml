type t = {
  ring : float array;  (* arrival order; slot [seen mod size] is next *)
  sorted : float array;  (* the ring's samples in Float.compare order *)
  mutable seen : int;
}

let create size =
  if size < 1 then invalid_arg "Latency_window.create: size must be >= 1";
  { ring = Array.make size 0.0; sorted = Array.make size 0.0; seen = 0 }

let length t = min t.seen (Array.length t.ring)

(* First index in [sorted.(0 .. n-1)] whose sample is not below [x]. *)
let lower_bound sorted n x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Float.compare sorted.(mid) x < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 n

let add t x =
  let size = Array.length t.ring in
  let slot = t.seen mod size in
  let n = length t in
  let n =
    if n < size then n
    else begin
      (* Full: the sample the ring overwrites leaves the shadow. *)
      let i = lower_bound t.sorted n t.ring.(slot) in
      Array.blit t.sorted (i + 1) t.sorted i (n - i - 1);
      n - 1
    end
  in
  let i = lower_bound t.sorted n x in
  Array.blit t.sorted i t.sorted (i + 1) (n - i);
  t.sorted.(i) <- x;
  t.ring.(slot) <- x;
  t.seen <- t.seen + 1

let p99 t =
  let n = length t in
  if n = 0 then 0.0
  else
    (* The rank Numerics.Stats.quantile_nearest_rank_sorted picks. *)
    let rank = int_of_float (Float.ceil (0.99 *. float_of_int n)) in
    t.sorted.(max 1 (min n rank) - 1)

let p99_by_sort t =
  let n = length t in
  if n = 0 then 0.0
  else begin
    let sorted = Array.sub t.ring 0 n in
    Array.sort compare sorted;
    Numerics.Stats.quantile_nearest_rank_sorted sorted 0.99
  end
