module Sim = Ccsim_engine.Sim

type t = { mutable bytes_offered : int }

let over_tcp sim ~sender ~rate_bps () =
  if rate_bps <= 0.0 then invalid_arg "Cbr.over_tcp: rate must be positive";
  let tick = 0.01 in
  let t = { bytes_offered = 0 } in
  (* Accumulate fractional bytes so the long-run rate is exact. *)
  let carry = ref 0.0 in
  Sim.every sim ~interval:tick (fun () ->
      carry := !carry +. (rate_bps *. tick /. 8.0);
      let n = int_of_float !carry in
      if n > 0 then begin
        carry := !carry -. float_of_int n;
        t.bytes_offered <- t.bytes_offered + n;
        Ccsim_tcp.Sender.write sender n
      end);
  t

let over_udp sim ~source ~rate_bps ?(packet_bytes = Ccsim_util.Units.mss) ?stop () =
  if rate_bps <= 0.0 then invalid_arg "Cbr.over_udp: rate must be positive";
  if packet_bytes <= 0 then invalid_arg "Cbr.over_udp: packet size must be positive";
  let t = { bytes_offered = 0 } in
  let interval = float_of_int packet_bytes *. 8.0 /. rate_bps in
  Sim.every sim ~interval ?stop_after:stop (fun () ->
      t.bytes_offered <- t.bytes_offered + packet_bytes;
      Ccsim_tcp.Udp.Source.send source ~bytes:packet_bytes);
  t

let bytes_offered t = t.bytes_offered
