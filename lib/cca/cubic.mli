(** CUBIC congestion control (RFC 8312).

    Window growth follows W(t) = C(t − K)³ + W_max between losses, with
    the TCP-friendly region as a floor; β = 0.7 multiplicative decrease.
    The dominant deployed loss-based CCA, and one of the two contenders
    in the paper's Figure 3 bulk-transfer cross traffic. *)

val create : ?mss:int -> ?c:float -> ?beta:float -> ?initial_cwnd:float -> unit -> Cca.t
(** Defaults per RFC 8312: [c] = 0.4, [beta] = 0.7. *)
