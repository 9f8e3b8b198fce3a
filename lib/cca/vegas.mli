(** TCP Vegas (Brakmo & Peterson 1995), the classic delay-based CCA.

    Once per RTT, compares expected throughput (cwnd / base RTT) with
    actual throughput (cwnd / current RTT); if the difference — the
    number of self-queued packets — is below [alpha] the window grows by
    one MSS, above [beta] it shrinks by one. Backs off like Reno on
    loss. Included as the delay-based baseline that loses to loss-based
    cross traffic, motivating mode-switching designs (Copa, Nimbus). *)

val create : unit -> Cca.t
(** [alpha] = 2 packets, [beta] = 4 packets. The window starts at the RFC 6928
    ten-segment initial window of {!Ccsim_util.Units.mss}-byte segments. *)
