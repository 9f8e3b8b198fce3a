let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let mean xs =
  check_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "Stats.variance" xs;
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let minimum xs =
  check_nonempty "Stats.minimum" xs;
  Array.fold_left Float.min xs.(0) xs

let maximum xs =
  check_nonempty "Stats.maximum" xs;
  Array.fold_left Float.max xs.(0) xs

let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end
  end

let percentile xs p =
  check_nonempty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of [0,100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted sorted p

let median xs = percentile xs 50.0

let coefficient_of_variation xs =
  let m = mean xs in
  if Feq.feq ~eps:0.0 m 0.0 then invalid_arg "Stats.coefficient_of_variation: zero mean";
  stddev xs /. m

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  p50 : float;
  p75 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let summarize xs =
  check_nonempty "Stats.summarize" xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let pct = percentile_sorted sorted in
  {
    count = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = sorted.(0);
    p25 = pct 25.0;
    p50 = pct 50.0;
    p75 = pct 75.0;
    p90 = pct 90.0;
    p99 = pct 99.0;
    max = sorted.(Array.length sorted - 1);
  }

module Online = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)

  let min t =
    if t.n = 0 then invalid_arg "Stats.Online.min: empty accumulator";
    t.min

  let max t =
    if t.n = 0 then invalid_arg "Stats.Online.max: empty accumulator";
    t.max

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
      in
      { n; mean; m2; min = Float.min a.min b.min; max = Float.max a.max b.max }
    end
end
