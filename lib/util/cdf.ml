type t = { sorted : float array }

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Cdf.of_samples: empty array";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  { sorted }

let count t = Array.length t.sorted
let max_value t = t.sorted.(Array.length t.sorted - 1)

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Cdf.quantile: q out of [0,1]";
  let n = count t in
  let idx = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  let idx = max 0 (min (n - 1) idx) in
  t.sorted.(idx)
