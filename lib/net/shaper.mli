(** Token-bucket traffic shaper.

    Queues packets that exceed the configured rate and releases them when
    tokens accrue — the "router queues the user's excess traffic" form of
    ISP bandwidth management (§2.1). Packets are released in FIFO order;
    arrivals beyond the queue limit are dropped. *)

type t

val create :
  Ccsim_engine.Sim.t ->
  rate_bps:float ->
  burst_bytes:int ->
  ?limit_bytes:(int [@ccsim.test_only "tests bound the shaper queue with it"]) ->
  sink:(Packet.t -> unit) ->
  unit ->
  t
(** [limit_bytes] bounds the shaping queue (default as {!Fifo.create}). *)

val input : t -> Packet.t -> unit
[@@ccsim.test_only "tests feed a bare element; topologies use the ingress"]
(** Offer a packet to the shaper. *)

val dropped : t -> int [@@ccsim.test_only "tests count the element's drops"]

val as_sink : t -> Packet.t -> unit
(** Convenience partial application of {!input} for path wiring. *)
