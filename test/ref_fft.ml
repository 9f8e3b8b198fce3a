(* Test-only reference: Ccsim_util.Fft as it was before the pruned
   kernel, verbatim: a full boxed Complex.t transform. test_util.ml
   checks Fft.magnitude_at against [magnitude_at (mean_removed s)]
   bit for bit, and the roundtrip and Parseval tests run on it. *)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  if n <= 0 then invalid_arg "Fft.next_power_of_two: argument must be positive";
  let rec loop p = if p >= n then p else loop (2 * p) in
  loop 1

(* Iterative in-place Cooley-Tukey with bit-reversal permutation.
   [sign] is -1 for the forward transform and +1 for the inverse. *)
let fft_in_place a sign =
  let n = Array.length a in
  (* Bit-reversal permutation. *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tmp = a.(i) in
      a.(i) <- a.(!j);
      a.(!j) <- tmp
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  (* Butterfly passes. *)
  let len = ref 2 in
  while !len <= n do
    let ang = float_of_int sign *. 2.0 *. Float.pi /. float_of_int !len in
    let wlen = Complex.{ re = cos ang; im = sin ang } in
    let i = ref 0 in
    while !i < n do
      let w = ref Complex.one in
      for k = 0 to (!len / 2) - 1 do
        let u = a.(!i + k) in
        let v = Complex.mul a.(!i + k + (!len / 2)) !w in
        a.(!i + k) <- Complex.add u v;
        a.(!i + k + (!len / 2)) <- Complex.sub u v;
        w := Complex.mul !w wlen
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

let transform input =
  let n = Array.length input in
  if not (is_power_of_two n) then invalid_arg "Fft.transform: length must be a power of two";
  let a = Array.copy input in
  fft_in_place a (-1);
  a

let inverse input =
  let n = Array.length input in
  if not (is_power_of_two n) then invalid_arg "Fft.inverse: length must be a power of two";
  let a = Array.copy input in
  fft_in_place a 1;
  let scale = 1.0 /. float_of_int n in
  Array.map (fun c -> Complex.{ re = c.re *. scale; im = c.im *. scale }) a

let real_transform signal =
  transform (Array.map (fun x -> Complex.{ re = x; im = 0.0 }) signal)

let magnitude_spectrum signal =
  let spectrum = real_transform signal in
  let n = Array.length spectrum in
  Array.init ((n / 2) + 1) (fun k -> Complex.norm spectrum.(k))

let frequency_bin ~n ~sample_rate freq =
  int_of_float (Float.round (freq *. float_of_int n /. sample_rate))

let magnitude_at signal ~sample_rate ~freq =
  let n = Array.length signal in
  let mags = magnitude_spectrum signal in
  let k = frequency_bin ~n ~sample_rate freq in
  let k = max 0 (min (Array.length mags - 1) k) in
  let candidates =
    List.filter (fun i -> i >= 0 && i < Array.length mags) [ k - 1; k; k + 1 ]
  in
  let best = List.fold_left (fun acc i -> Float.max acc mags.(i)) 0.0 candidates in
  best /. (float_of_int n /. 2.0)

let mean_removed signal =
  let n = Array.length signal in
  if n = 0 then [||]
  else begin
    let m = Array.fold_left ( +. ) 0.0 signal /. float_of_int n in
    Array.map (fun x -> x -. m) signal
  end
