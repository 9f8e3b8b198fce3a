type t = {
  min_rto : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable min_rtt : float;
  mutable backoff_factor : float;
  mutable samples : int;
}

let max_rto = 60.0

let create ?(min_rto = 0.2) () =
  if min_rto <= 0.0 || max_rto < min_rto then invalid_arg "Rtt_estimator.create: bad bounds";
  {
    min_rto;
    srtt = 0.0;
    rttvar = 0.0;
    min_rtt = infinity;
    backoff_factor = 1.0;
    samples = 0;
  }

let observe t r =
  if r <= 0.0 then invalid_arg "Rtt_estimator.observe: RTT must be positive";
  if t.samples = 0 then begin
    t.srtt <- r;
    t.rttvar <- r /. 2.0
  end
  else begin
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. r));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. r)
  end;
  if r < t.min_rtt then t.min_rtt <- r;
  t.backoff_factor <- 1.0;
  t.samples <- t.samples + 1

let srtt t = t.srtt
let rttvar t = t.rttvar
let min_rtt t = t.min_rtt

let rto t =
  let base = if t.samples = 0 then 1.0 else t.srtt +. Float.max 0.001 (4.0 *. t.rttvar) in
  (* Backoff multiplies the floored RTO (as deployed stacks do), so each
     timeout genuinely doubles the wait even when the floor binds. *)
  Float.min max_rto (Float.max t.min_rto base *. t.backoff_factor)

let backoff t = t.backoff_factor <- Float.min (t.backoff_factor *. 2.0) 64.0
