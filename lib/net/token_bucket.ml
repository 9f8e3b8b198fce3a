type t = {
  rate_bps : float;
  burst_bytes : int;
  mutable tokens : float; (* bytes *)
  mutable updated : float;
}

let create ~rate_bps ~burst_bytes ~now =
  if rate_bps <= 0.0 then invalid_arg "Token_bucket.create: rate must be positive";
  if burst_bytes <= 0 then invalid_arg "Token_bucket.create: burst must be positive";
  { rate_bps; burst_bytes; tokens = float_of_int burst_bytes; updated = now }

let burst_bytes t = t.burst_bytes

let refill t ~now =
  if now < t.updated then invalid_arg "Token_bucket.refill: time moved backwards";
  let accrued = t.rate_bps *. (now -. t.updated) /. 8.0 in
  t.tokens <- Float.min (float_of_int t.burst_bytes) (t.tokens +. accrued);
  t.updated <- now

let try_consume t ~now ~bytes =
  refill t ~now;
  let need = float_of_int bytes in
  (* Small tolerance so accumulated float rounding in refill cannot leave
     the bucket permanently a hair short of a whole packet. *)
  if t.tokens >= need -. 1e-6 then begin
    t.tokens <- Float.max 0.0 (t.tokens -. need);
    true
  end
  else false

let tokens t ~now =
  refill t ~now;
  t.tokens

let time_until_available t ~now ~bytes =
  if bytes > t.burst_bytes then
    invalid_arg "Token_bucket.time_until_available: request exceeds burst size";
  refill t ~now;
  let deficit = float_of_int bytes -. t.tokens in
  if deficit <= 0.0 then 0.0 else deficit *. 8.0 /. t.rate_bps
