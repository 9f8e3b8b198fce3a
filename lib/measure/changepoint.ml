let prefix_sums signal =
  let n = Array.length signal in
  let prefix = Array.make (n + 1) 0.0 and prefix_sq = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) +. signal.(i);
    prefix_sq.(i + 1) <- prefix_sq.(i) +. (signal.(i) *. signal.(i))
  done;
  (prefix, prefix_sq)

(* L2 cost of [i, j): sum x^2 - (sum x)^2 / len. *)
let segment_cost ~prefix ~prefix_sq i j =
  if i >= j then 0.0
  else begin
    let s = prefix.(j) -. prefix.(i) in
    let sq = prefix_sq.(j) -. prefix_sq.(i) in
    sq -. (s *. s /. float_of_int (j - i))
  end

let default_penalty signal =
  let n = Array.length signal in
  if n < 3 then 1.0
  else begin
    (* Robust noise estimate from successive differences: x_{i+1} - x_i
       is N(0, sigma*sqrt 2) away from change points, and the median of
       |N(0, s)| is 0.6745 s. *)
    let diffs = Array.init (n - 1) (fun i -> Float.abs (signal.(i + 1) -. signal.(i))) in
    Array.sort Float.compare diffs;
    let med = diffs.(Array.length diffs / 2) in
    let sigma = med /. (0.6745 *. sqrt 2.0) in
    let sigma2 = Float.max (sigma *. sigma) 1e-9 in
    2.0 *. sigma2 *. log (float_of_int n)
  end

let pelt_with ?penalty signal =
  let n = Array.length signal in
  if n < 2 then []
  else begin
    let beta = match penalty with Some p -> p | None -> default_penalty signal in
    let prefix, prefix_sq = prefix_sums signal in
    let cost = segment_cost ~prefix ~prefix_sq in
    (* f.(t) = optimal cost of segmenting [0, t); last.(t) = last change. *)
    let f = Array.make (n + 1) 0.0 in
    let last = Array.make (n + 1) 0 in
    let candidates = ref [ 0 ] in
    for t = 1 to n do
      let best = ref infinity and best_s = ref 0 in
      List.iter
        (fun s ->
          let c = f.(s) +. cost s t +. beta in
          if c < !best then begin
            best := c;
            best_s := s
          end)
        !candidates;
      f.(t) <- !best;
      last.(t) <- !best_s;
      (* PELT pruning: s can never be optimal again if even without the
         penalty it cannot beat the current optimum. *)
      candidates :=
        t :: List.filter (fun s -> f.(s) +. cost s t <= f.(t)) !candidates
    done;
    let rec unwind t acc = if t <= 0 then acc else unwind last.(t) (if last.(t) > 0 then last.(t) :: acc else acc) in
    unwind n []
  end

let pelt signal = pelt_with signal

let segment_means signal changes =
  let n = Array.length signal in
  if n = 0 then []
  else begin
    let bounds = (0 :: changes) @ [ n ] in
    let rec pairs = function
      | a :: (b :: _ as rest) ->
          let seg = Array.sub signal a (b - a) in
          (a, b, Ccsim_util.Stats.mean seg) :: pairs rest
      | [ _ ] | [] -> []
    in
    pairs bounds
  end

let largest_shift signal changes =
  let means = List.map (fun (_, _, m) -> m) (segment_means signal changes) in
  let rec max_jump acc = function
    | a :: (b :: _ as rest) -> max_jump (Float.max acc (Float.abs (b -. a))) rest
    | [ _ ] | [] -> acc
  in
  max_jump 0.0 means

type verdict = { change_points : int list; largest_shift : float; contention_consistent : bool }

let verdict ?penalty ~shift_threshold ~mean signal =
  let change_points = pelt_with ?penalty signal in
  let largest_shift = largest_shift signal change_points in
  {
    change_points;
    largest_shift;
    contention_consistent =
      (match change_points with [] -> false | _ :: _ -> true)
      && largest_shift /. Float.max 1e-9 mean >= shift_threshold;
  }
