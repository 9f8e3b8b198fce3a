let bits_of_bytes b = 8.0 *. float_of_int b
let bytes_of_bits b = int_of_float (Float.round (b /. 8.0))
let mbps x = x *. 1e6
let kbps x = x *. 1e3
let gbps x = x *. 1e9
let to_mbps r = r /. 1e6
let ms x = x /. 1e3
let us x = x /. 1e6
let to_ms t = t *. 1e3

let bdp_bytes ~rate_bps ~rtt_s = bytes_of_bits (rate_bps *. rtt_s)

let bdp_packets ~rate_bps ~rtt_s ~mss =
  if mss <= 0 then invalid_arg "Units.bdp_packets: mss must be positive";
  rate_bps *. rtt_s /. bits_of_bytes mss

let mss = 1448
let header_bytes = 52
