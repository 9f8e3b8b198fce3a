(** TCP NewReno congestion control (RFC 5681/6582 dynamics).

    Slow start doubles the window per RTT until [ssthresh]; congestion
    avoidance adds one MSS per RTT; a fast-retransmit loss halves the
    window; an RTO collapses it to one MSS and re-enters slow start.
    This is the paper's canonical "loss-based, fair-target" CCA (the one
    TFRC was designed to coexist with, and the victim in BBR unfairness
    studies [2]). *)

val create : ?mss:int -> ?initial_cwnd:float -> unit -> Cca.t
(** [mss] defaults to {!Ccsim_util.Units.mss}; [initial_cwnd] (bytes) to
    the RFC 6928 ten-segment window. *)
