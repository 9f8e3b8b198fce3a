(* The SplitMix64 state sits in 8 bytes, read and written with
   [Bytes.get_int64_ne]/[set_int64_ne]: a mutable [int64] field would
   box every new state, one allocation per draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let split t = of_state (bits64 t)
(* 53 random bits mapped to [0, 1). *)
let[@inline] unit_float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let unit_float_into t slots i = slots.(i) <- unit_float t

let float t bound =
  if bound <= 0.0 then invalid_arg "Rng.float: bound must be positive";
  unit_float t *. bound

(* Rejection sampling to avoid modulo bias. *)
let rec draw_below t bound =
  let b = Int64.of_int bound in
  let r = Int64.shift_right_logical (bits64 t) 1 in
  let v = Int64.rem r b in
  if Int64.sub r v > Int64.sub Int64.max_int (Int64.sub b 1L) then draw_below t bound
  else Int64.to_int v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_below t bound

let bool t = Int64.equal (Int64.logand (bits64 t) 1L) 1L

let bernoulli t ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let uniform t ~lo ~hi =
  if lo >= hi then invalid_arg "Rng.uniform: requires lo < hi";
  lo +. (unit_float t *. (hi -. lo))

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let bounded_pareto t ~shape ~scale ~cap =
  if not (scale < cap) then invalid_arg "Rng.bounded_pareto: requires scale < cap";
  (* Inverse-transform on the truncated CDF. *)
  let l = scale ** shape and h = cap ** shape in
  let u = unit_float t in
  ((-.(u *. h) +. (u *. l) +. h) /. (h *. l)) ** (-1.0 /. shape)

let normal t ~mean ~stddev =
  let u1 = 1.0 -. unit_float t and u2 = unit_float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
