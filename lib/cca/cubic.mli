(** CUBIC congestion control (RFC 8312).

    Window growth follows W(t) = C(t − K)³ + W_max between losses, with
    the TCP-friendly region as a floor; β = 0.7 multiplicative decrease.
    The dominant deployed loss-based CCA, and one of the two contenders
    in the paper's Figure 3 bulk-transfer cross traffic. *)

val create : unit -> Cca.t
(** RFC 8312's constants: C = 0.4, β = 0.7. The window starts at the RFC 6928
    ten-segment initial window of {!Ccsim_util.Units.mss}-byte segments. *)
