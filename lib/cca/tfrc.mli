(** TFRC-style equation-based rate control (RFC 5348, simplified).

    Paces at the rate the TCP throughput equation predicts for the
    current loss-event rate and RTT, so that a non-window-based flow
    consumes the same long-term share as a Reno flow — the original
    "TCP-friendliness" contract the paper's introduction cites [1].
    Loss-event rate comes from the weighted average of the last eight
    loss intervals, as in the RFC. *)

val create : unit -> Cca.t
(** The throughput equation uses {!Ccsim_util.Units.mss}-byte segments. *)
