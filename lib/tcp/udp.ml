module Sim = Ccsim_engine.Sim
module Packet = Ccsim_net.Packet

module Source = struct
  type t = {
    sim : Sim.t;
    flow : int;
    path : Packet.t -> unit;
    mutable next_seq : int;
  }

  let create sim ~flow ~path () = { sim; flow; path; next_seq = 0 }

  let send t ~bytes =
    if bytes <= 0 then invalid_arg "Udp.Source.send: bytes must be positive";
    let remaining = ref bytes in
    while !remaining > 0 do
      let len = min Ccsim_util.Units.mss !remaining in
      remaining := !remaining - len;
      let pkt =
        Packet.data ~flow:t.flow ~seq:t.next_seq ~payload_bytes:len ~retx:false
          ~sent_at:(Sim.now t.sim) ()
      in
      t.next_seq <- t.next_seq + len;
      t.path pkt
    done
end

module Sink = struct
  type t = {
    sim : Sim.t;
    mutable bytes : int;
    mutable packets : int;
    arrivals : Ccsim_util.Timeseries.t;
  }

  let create sim () =
    { sim; bytes = 0; packets = 0; arrivals = Ccsim_util.Timeseries.create () }

  let handle t (pkt : Packet.t) =
    t.bytes <- t.bytes + pkt.payload_bytes;
    t.packets <- t.packets + 1;
    Ccsim_util.Timeseries.add t.arrivals ~time:(Sim.now t.sim)
      ~value:(float_of_int pkt.size_bytes)

  let bytes_received t = t.bytes
  let packets_received t = t.packets
  let arrivals t = t.arrivals

  let interarrival_jitter t =
    let times = Ccsim_util.Timeseries.times t.arrivals in
    let n = Array.length times in
    if n < 3 then 0.0
    else begin
      let gaps = Array.init (n - 1) (fun i -> times.(i + 1) -. times.(i)) in
      let mean_gap = Ccsim_util.Stats.mean gaps in
      let dev = Array.map (fun g -> Float.abs (g -. mean_gap)) gaps in
      Ccsim_util.Stats.mean dev
    end
end
