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
  ?limit_bytes:int ->
  sink:(Packet.t -> unit) ->
  unit ->
  t
(** [limit_bytes] bounds the shaping queue (default as {!Fifo.create}). *)

val input : t -> Packet.t -> unit
(** Offer a packet to the shaper. *)

val dropped : t -> int

val as_sink : t -> Packet.t -> unit
(** Convenience partial application of {!input} for path wiring. *)
