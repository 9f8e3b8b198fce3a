module Topology = Ccsim_net.Topology
module Dispatch = Ccsim_net.Dispatch

type t = { sender : Sender.t; receiver : Receiver.t; flow : int }

let establish (topo : Topology.t) ~flow ~cca ?rcv_buffer_bytes ?consume_rate_bps
    ?(on_complete = fun _ -> ()) () =
  let sender =
    Sender.create topo.sim ~flow ~cca ~path:(topo.fwd_entry ~flow) ~on_complete ()
  in
  let receiver =
    Receiver.create topo.sim ~flow ~ack_path:(topo.rev_entry ~flow)
      ?buffer_bytes:rcv_buffer_bytes ?consume_rate_bps ()
  in
  Dispatch.register topo.fwd_dispatch ~flow (Receiver.handle_data receiver);
  Dispatch.register topo.rev_dispatch ~flow (Sender.handle_ack sender);
  { sender; receiver; flow }

let teardown (topo : Topology.t) t =
  Sender.stop t.sender;
  Dispatch.unregister topo.fwd_dispatch ~flow:t.flow;
  Dispatch.unregister topo.rev_dispatch ~flow:t.flow

let goodput_bps t ~over =
  if over <= 0.0 then invalid_arg "Connection.goodput_bps: duration must be positive";
  float_of_int (Receiver.bytes_received t.receiver) *. 8.0 /. over
