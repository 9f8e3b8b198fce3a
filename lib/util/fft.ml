let is_power_of_two n = n > 0 && n land (n - 1) = 0

type plan = {
  n : int;
  stages : int;  (* log2 n *)
  perm : int array;  (* bit-reversal order: slot i takes input perm.(i) *)
  tw_re : float array;  (* stage with half-length h: twiddle k at h - 1 + k *)
  tw_im : float array;
  re : float array;
  im : float array;
  acc : float array;  (* one slot: the running sum, then the running max *)
}

let plan n =
  if not (is_power_of_two n) then invalid_arg "Fft.plan: size must be a power of two";
  (* The swap loop of an iterative in-place Cooley-Tukey, run once on
     the indices. *)
  let perm = Array.init n Fun.id in
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tmp = perm.(i) in
      perm.(i) <- perm.(!j);
      perm.(!j) <- tmp
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  (* Each stage's twiddles by the recurrence w(k+1) = w(k) * wlen from
     w(0) = 1, with Complex.mul's operations in its order: computing
     cos/sin per k would round differently. *)
  let tw_re = Array.make (n - 1) 0.0 and tw_im = Array.make (n - 1) 0.0 in
  let stages = ref 0 in
  let half = ref 1 in
  while 2 * !half <= n do
    let len = 2 * !half in
    let ang = -1.0 *. 2.0 *. Float.pi /. float_of_int len in
    let wl_re = cos ang and wl_im = sin ang in
    let w_re = ref 1.0 and w_im = ref 0.0 in
    for k = 0 to !half - 1 do
      tw_re.(!half - 1 + k) <- !w_re;
      tw_im.(!half - 1 + k) <- !w_im;
      let re = (!w_re *. wl_re) -. (!w_im *. wl_im) in
      w_im := (!w_re *. wl_im) +. (!w_im *. wl_re);
      w_re := re
    done;
    incr stages;
    half := len
  done;
  {
    n;
    stages = !stages;
    perm;
    tw_re;
    tw_im;
    re = Array.make n 0.0;
    im = Array.make n 0.0;
    acc = [| 0.0 |];
  }

let[@ccsim.hot] magnitude_at p s ~sample_rate ~freq =
  let n = p.n and re = p.re and im = p.im and acc = p.acc in
  if Array.length s <> n then invalid_arg "Fft.magnitude_at: signal length must match the plan";
  (* Centre the signal (left-to-right sum over n) and load it in
     bit-reversed order with zero imaginary parts. *)
  acc.(0) <- 0.0;
  for i = 0 to n - 1 do
    acc.(0) <- acc.(0) +. s.(i)
  done;
  let mean = acc.(0) /. float_of_int n in
  for i = 0 to n - 1 do
    re.(i) <- s.(p.perm.(i)) -. mean;
    im.(i) <- 0.0
  done;
  (* Bins k-1, k, k+1 of the one-sided spectrum [0, n/2]. *)
  let k = int_of_float (Float.round (freq *. float_of_int n /. sample_rate)) in
  let k = Int.max 0 (Int.min (n / 2) k) in
  let lo = Int.max 0 (k - 1) and hi = Int.min (n / 2) (k + 1) in
  (* Radix-2 decimation-in-time stages, pruned: at half-length h only
     the butterflies at offsets b mod h (b a wanted bin) feed a wanted
     bin, in every block. Bins lo..lo+h-1 cover those offsets once each;
     a skipped butterfly writes only slots no kept butterfly reads. *)
  for stage = 0 to p.stages - 1 do
    let half = 1 lsl stage in
    for b = lo to Int.min hi (lo + half - 1) do
      let off = b land (half - 1) in
      let w_re = p.tw_re.(half - 1 + off) and w_im = p.tw_im.(half - 1 + off) in
      for block = 0 to (n lsr (stage + 1)) - 1 do
        let i = (block lsl (stage + 1)) + off in
        let j = i + half in
        (* v = a.(j) * w; a.(i) <- a.(i) + v; a.(j) <- a.(i) - v, with
           Complex.mul, add and sub's operations in their order. *)
        let v_re = (re.(j) *. w_re) -. (im.(j) *. w_im) in
        let v_im = (re.(j) *. w_im) +. (im.(j) *. w_re) in
        let u_re = re.(i) and u_im = im.(i) in
        re.(i) <- u_re +. v_re;
        im.(i) <- u_im +. v_im;
        re.(j) <- u_re -. v_re;
        im.(j) <- u_im -. v_im
      done
    done
  done;
  acc.(0) <- 0.0;
  for b = lo to hi do
    acc.(0) <- Float.max acc.(0) (Float.hypot re.(b) im.(b))
  done;
  acc.(0) /. (float_of_int n /. 2.0)
