type t = {
  at : float;
  bytes_acked : int;
  min_rtt : float;
  app_limited_s : float;
  rwnd_limited_s : float;
  cwnd_limited_s : float;
  pacing_limited_s : float;
  recovery_s : float;
  elapsed_s : float;
}

let throughput_bps ~prev ~cur =
  if cur.at <= prev.at then invalid_arg "Tcp_info.throughput_bps: snapshots out of order";
  float_of_int (cur.bytes_acked - prev.bytes_acked) *. 8.0 /. (cur.at -. prev.at)

let fraction_of_lifetime value t = if t.elapsed_s <= 0.0 then 0.0 else value /. t.elapsed_s
let app_limited_fraction t = fraction_of_lifetime t.app_limited_s t
let rwnd_limited_fraction t = fraction_of_lifetime t.rwnd_limited_s t
