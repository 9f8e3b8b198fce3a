(** BBR congestion control (v1, simplified).

    Model-based: estimates the bottleneck bandwidth (windowed max of
    delivery-rate samples over ~10 RTTs) and the round-trip propagation
    delay (windowed min over 10 s), paces at [gain x btlbw], and caps
    inflight at [cwnd_gain x BDP]. State machine: STARTUP (gain 2.885)
    until bandwidth stops growing, DRAIN, then PROBE_BW cycling gains
    [1.25, 0.75, 1, 1, 1, 1, 1, 1], with periodic PROBE_RTT (cwnd of
    4 MSS for 200 ms) to refresh the min-RTT estimate.

    Faithful to v1's defining behaviour for the paper's purposes: it
    largely ignores individual losses, which is what makes it take more
    than its fair share against Reno/Cubic on FIFO bottlenecks [2].

    The bandwidth filter is exact over the current and previous ten
    rounds ({!Ccsim_util.Windowed_max}), not Linux's three-sample
    approximation, and costs the same per ack however many acks a round
    brings. *)

val create : unit -> Cca.t
(** The window starts at the RFC 6928
    ten-segment initial window of {!Ccsim_util.Units.mss}-byte segments. *)
