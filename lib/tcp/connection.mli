(** Convenience wiring of a sender/receiver pair onto a topology.

    Registers the receiver on the forward dispatch and the sender on the
    reverse dispatch, so a connection is one call to set up and tear
    down. *)

type t = { sender : Sender.t; receiver : Receiver.t; flow : int }

val establish :
  Ccsim_net.Topology.t ->
  flow:int ->
  cca:Ccsim_cca.Cca.t ->
  ?rcv_buffer_bytes:(int [@ccsim.test_only "tests make a window-limited receiver with it"]) ->
  ?consume_rate_bps:(float [@ccsim.test_only "tests make a window-limited receiver with it"]) ->
  ?on_complete:(Sender.t -> unit) ->
  unit ->
  t
(** Raises [Invalid_argument] (via {!Ccsim_net.Dispatch.register}) if the
    flow id is already in use on the topology. *)

val teardown : Ccsim_net.Topology.t -> t -> unit
(** Stop the sender and unregister both handlers (in-flight packets for
    the flow are then counted as unmatched by the dispatches). *)

val goodput_bps : t -> over:float -> float [@@ccsim.test_only "tests read a connection's goodput"]
(** Contiguous bytes received divided by [over] seconds. *)
