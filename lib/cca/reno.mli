(** TCP NewReno congestion control (RFC 5681/6582 dynamics).

    Slow start doubles the window per RTT until [ssthresh]; congestion
    avoidance adds one MSS per RTT; a fast-retransmit loss halves the
    window; an RTO collapses it to one MSS and re-enters slow start.
    This is the paper's canonical "loss-based, fair-target" CCA (the one
    TCP-friendly rate control was designed to coexist with, and the
    victim in BBR unfairness studies [2]). *)

val create : unit -> Cca.t
(** {!Aimd} at a = 1, b = ½, named ["reno"]. Segments are
    {!Ccsim_util.Units.mss} bytes; the window starts at the RFC 6928
    ten-segment initial window. *)
