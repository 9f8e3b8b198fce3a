(** TCP receiver: cumulative acknowledgments, out-of-order buffering, and
    receive-window (flow-control) modeling.

    Every data segment triggers an immediate ack carrying the cumulative
    next-expected byte and the advertised window. The receive window
    models a finite buffer drained by the receiving application at a
    configurable rate — the mechanism behind the "receiver-limited"
    flows that the paper's M-Lab analysis filters out. *)

type t

val create :
  Ccsim_engine.Sim.t ->
  flow:int ->
  ack_path:(Ccsim_net.Packet.t -> unit) ->
  ?buffer_bytes:int ->
  ?consume_rate_bps:float ->
  unit ->
  t
(** [ack_path] is where acks are injected (e.g. [Topology.rev_entry]).
    [buffer_bytes] defaults to 4 MiB; [consume_rate_bps] to [infinity]
    (the application drains instantly, so the flow is never
    receiver-limited). *)

val handle_data : t -> Ccsim_net.Packet.t -> unit
(** Deliver a data packet (register this with the forward dispatch). *)

val bytes_received : t -> int
(** Contiguous bytes received (the current cumulative ack point). *)

val out_of_order : t -> (int * int) list
[@@ccsim.test_only "tests observe the receiver's reassembly and window"]
(** Buffered byte ranges [(lo, hi)] above {!bytes_received}, [hi]
    exclusive: ascending, disjoint and non-adjacent. *)

val acks_sent : t -> int
val advertised_window : t -> int
[@@ccsim.test_only "tests observe the receiver's reassembly and window"]
(** Current rwnd in bytes. *)
