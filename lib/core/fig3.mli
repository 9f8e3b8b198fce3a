(** Figure 3 reproduction: actively measuring elasticity.

    A Nimbus probe flow (mode switching disabled, pulses kept, capacity
    pinned to the emulated link) runs for 45 s on a 48 Mbit/s, 100 ms-RTT
    bottleneck against five kinds of cross traffic, as in the paper:
    persistently backlogged Reno, persistently backlogged BBR, an ABR
    video stream, Poisson-arrival short flows, and constant-bit-rate
    UDP. Elastic (backlogged) cross traffic mirrors the probe's
    bandwidth oscillations and yields a clearly higher elasticity
    metric. *)

type row = {
  traffic : string;
  expected_elastic : bool;
  mean_elasticity : float;  (** over the steady-state window *)
  p90_elasticity : float;
  classified_elastic : bool;  (** p90 > 0.5 *)
  probe_goodput_mbps : float;
  cross_goodput_mbps : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
(** One scenario per cross-traffic type (default 45 s each). *)

val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
