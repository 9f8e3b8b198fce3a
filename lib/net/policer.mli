(** Token-bucket traffic policer.

    Drops packets that exceed the configured rate instead of queueing
    them — the behaviour Flach et al. found on 7% of measured paths
    (§2.1). Conforming packets pass through with no added delay. *)

type t

val create :
  Ccsim_engine.Sim.t -> rate_bps:float -> burst_bytes:int -> sink:(Packet.t -> unit) -> unit -> t

val input : t -> Packet.t -> unit
[@@ccsim.test_only "tests feed a bare element; topologies use the ingress"]
val dropped : t -> int [@@ccsim.test_only "tests count the element's drops"]
val as_sink : t -> Packet.t -> unit
