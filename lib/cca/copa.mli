(** Copa congestion control (Arun & Balakrishnan, NSDI '18), simplified.

    Targets a sending rate of 1 / (delta x dq) where dq is the current
    queueing delay estimate (srtt − min RTT): the window moves toward the
    target by one MSS per RTT-worth of acks in the appropriate
    direction. This reproduces Copa's defining delay-targeting dynamics;
    we omit velocity doubling and TCP-competitive mode switching (noted
    in DESIGN.md), since the paper invokes Copa only as a mode-switching
    delay-based design. *)

val create : ?delta:(float [@ccsim.test_only "tests set Copa's delta with it"]) -> unit -> Cca.t
(** [delta] defaults to 0.5 (steady state of ~2 packets queued).
    The window starts at the RFC 6928
    ten-segment initial window of {!Ccsim_util.Units.mss}-byte segments. *)
