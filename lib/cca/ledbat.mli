(** LEDBAT (RFC 6817): low-extra-delay background transport.

    Targets a fixed amount of self-induced queueing delay (default
    100 ms in the RFC; BitTorrent uses ~25 ms) and yields to any other
    traffic: the window grows at most as fast as Reno when the queue is
    empty and decreases proportionally as the measured delay approaches
    the target.

    This is the transport §2.3's "persistently backlogged flows
    (software updates, etc)" would use in practice — a bulk transfer
    that scavenges capacity without contending, removing even the
    residual access-link contention case. *)

val create :
  ?target_delay:(float [@ccsim.test_only "tests set LEDBAT's target delay with it"]) ->
  ?initial_cwnd:(float [@ccsim.test_only "tests start LEDBAT from a large window with it"]) ->
  unit ->
  Cca.t
(** Defaults: [target_delay] 25 ms; [initial_cwnd] (bytes) the RFC 6928
    ten-segment window. The gain is 1 (at most one MSS per RTT of
    growth). *)
