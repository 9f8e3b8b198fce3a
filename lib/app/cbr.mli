(** Constant-bit-rate sources, over TCP or UDP.

    The TCP variant writes [rate x tick] bytes to a sender's buffer each
    tick, producing an *application-limited* flow whenever the network
    can carry the rate (the common case the paper's §2.2 argues
    dominates). The UDP variant is fully open-loop — the "CBR UDP"
    cross traffic of Figure 3. *)

type t

val over_tcp :
  Ccsim_engine.Sim.t ->
  sender:Ccsim_tcp.Sender.t ->
  rate_bps:float ->
  unit ->
  t
(** Writes every 10 ms, from one tick after now until the end of the
    run. *)

val over_udp :
  Ccsim_engine.Sim.t ->
  source:Ccsim_tcp.Udp.Source.t ->
  rate_bps:float ->
  ?packet_bytes:(int [@ccsim.test_only "tests vary the CBR source with it"]) ->
  ?stop:(float [@ccsim.test_only "tests vary the CBR source with it"]) ->
  unit ->
  t
(** Evenly spaced datagrams of [packet_bytes] (default MSS) payload,
    from one interval after now until [stop] (default: never). *)

val bytes_offered : t -> int
