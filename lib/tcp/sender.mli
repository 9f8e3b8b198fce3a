(** TCP sender: segmentation, SACK loss recovery, pacing, and
    limited-state accounting.

    MSS-sized segments, cumulative acks carrying up to three SACK
    blocks, and an RFC 6298 retransmission timer with exponential
    backoff. In-flight segments live on a {!Scoreboard}, which marks
    them lost by DupThresh (three MSS sacked above a hole) or a
    RACK-style time rule (a later-sent segment was delivered and this
    one is older than 1.5 smoothed RTTs); three duplicate acks mark the
    oldest segment lost as a fallback, and an RTO marks every unsacked
    segment lost. Anything marked lost starts recovery, which lasts
    until the cumulative ack passes the highest sequence sent when it
    began; lost segments go out oldest first, within the congestion
    window and pacing, before new data. The congestion window and
    optional pacing rate come from the attached {!Ccsim_cca.Cca.t};
    BBR-style delivery-rate samples are fed back to it on every ack.

    Applications put bytes in the send buffer with {!write} (or declare
    the flow persistently backlogged with {!set_unlimited}); the sender
    tracks, with cumulative timers, whether the connection is limited by
    the application, the receiver window, or the congestion window —
    the TCPInfo fields the paper's M-Lab analysis keys on. *)

type t

val create :
  Ccsim_engine.Sim.t ->
  flow:int ->
  cca:Ccsim_cca.Cca.t ->
  path:(Ccsim_net.Packet.t -> unit) ->
  ?on_complete:(t -> unit) ->
  unit ->
  t
(** [path] is the flow's data injection point (e.g.
    [Topology.fwd_entry]). Segments carry {!Ccsim_util.Units.mss}
    payload bytes. [on_complete] fires when {!close} was called
    and every written byte has been cumulatively acknowledged. *)

val flow : t -> int
val write : t -> int -> unit
(** Append bytes to the send buffer and try to transmit. *)

val set_unlimited : t -> unit
(** Mark the flow persistently backlogged (bulk transfer). *)

val close : t -> unit
(** No more application data will arrive; [on_complete] fires once
    outstanding data is acknowledged (immediately if none). *)

val handle_ack : t -> Ccsim_net.Packet.t -> unit
(** Deliver an ack packet (register this with the reverse dispatch). *)

val bytes_acked : t -> int

val bytes_sent : t -> int
val bytes_retrans : t -> int
val segs_retrans : t -> int
val inflight : t -> int

val cca : t -> Ccsim_cca.Cca.t
val srtt : t -> float
val min_rtt : t -> float
(** [infinity] before the first RTT sample. *)

val info : t -> Tcp_info.t
(** Current TCPInfo snapshot. *)

val stop : t -> unit
(** Halt transmission and cancel timers (used when tearing a flow down
    mid-simulation). *)
