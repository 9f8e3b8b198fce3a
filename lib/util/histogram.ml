type t = {
  lo : float;
  hi : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if lo >= hi then invalid_arg "Histogram.create: requires lo < hi";
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  { lo; hi; counts = Array.make bins 0; underflow = 0; overflow = 0; total = 0 }

let add t x =
  t.total <- t.total + 1;
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x >= t.hi then t.overflow <- t.overflow + 1
  else begin
    let bins = Array.length t.counts in
    let i = int_of_float ((x -. t.lo) /. (t.hi -. t.lo) *. float_of_int bins) in
    let i = min (bins - 1) i in
    t.counts.(i) <- t.counts.(i) + 1
  end

let add_all t xs = Array.iter (add t) xs
let count t = t.total

let bin_count t i =
  if i < 0 || i >= Array.length t.counts then invalid_arg "Histogram.bin_count: out of range";
  t.counts.(i)

let underflow t = t.underflow
let overflow t = t.overflow

let bin_edges t i =
  if i < 0 || i >= Array.length t.counts then invalid_arg "Histogram.bin_edges: out of range";
  let bins = float_of_int (Array.length t.counts) in
  let width = (t.hi -. t.lo) /. bins in
  (t.lo +. (float_of_int i *. width), t.lo +. (float_of_int (i + 1) *. width))

let mode_bin t =
  if t.total = 0 then invalid_arg "Histogram.mode_bin: empty histogram";
  let best = ref 0 in
  for i = 1 to Array.length t.counts - 1 do
    if t.counts.(i) > t.counts.(!best) then best := i
  done;
  !best
