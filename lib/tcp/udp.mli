(** Unreliable datagram endpoints, for CBR and other open-loop traffic.

    A UDP source pushes packets onto the forward path without feedback;
    a sink records arrival times and inter-arrival jitter. *)

module Source : sig
  type t

  val create :
    Ccsim_engine.Sim.t -> flow:int -> path:(Ccsim_net.Packet.t -> unit) -> unit -> t

  val send : t -> bytes:int -> unit
  (** Emit one datagram of [bytes] payload (split into MSS-sized packets
      if larger). *)
end

module Sink : sig
  type t

  val create : Ccsim_engine.Sim.t -> unit -> t

  val handle : t -> Ccsim_net.Packet.t -> unit
  (** Register with the forward dispatch. *)

  val bytes_received : t -> int
  val packets_received : t -> int [@@ccsim.test_only "tests count received datagrams"]

  val arrivals : t -> Ccsim_util.Timeseries.t
  (** (arrival time, packet size) points. *)

  val interarrival_jitter : t -> float
  (** RFC 3550-style mean absolute deviation of inter-arrival gaps, in
      seconds; 0 with fewer than three packets. *)
end
