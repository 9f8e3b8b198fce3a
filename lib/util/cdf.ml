type t = { sorted : float array }

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Cdf.of_samples: empty array";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  { sorted }

let count t = Array.length t.sorted
let min_value t = t.sorted.(0)
let max_value t = t.sorted.(Array.length t.sorted - 1)

(* Number of samples <= x, by binary search for the upper bound. *)
let rank t x =
  let a = t.sorted in
  let n = Array.length a in
  let rec loop lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) <= x then loop (mid + 1) hi else loop lo mid
  in
  loop 0 n

let eval t x = float_of_int (rank t x) /. float_of_int (count t)

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Cdf.quantile: q out of [0,1]";
  let n = count t in
  let idx = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  let idx = max 0 (min (n - 1) idx) in
  t.sorted.(idx)

let points t =
  let n = count t in
  let acc = ref [] in
  let i = ref (n - 1) in
  while !i >= 0 do
    let x = t.sorted.(!i) in
    (* Skip duplicates, keeping the highest rank for each x. *)
    (match !acc with
    | (x', _) :: _ when Float.equal x' x -> ()
    | _ -> acc := (x, float_of_int (!i + 1) /. float_of_int n) :: !acc);
    decr i
  done;
  !acc

let sample_points t ~n =
  if n < 2 then invalid_arg "Cdf.sample_points: n must be >= 2";
  List.init n (fun i ->
      let q = float_of_int i /. float_of_int (n - 1) in
      (quantile t q, q))
