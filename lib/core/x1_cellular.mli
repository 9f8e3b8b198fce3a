(** X1 (extension) — congestion control under capacity variability
    (§2.3, §5.1).

    If isolation makes fairness moot, the paper argues CCAs should be
    judged on how they "cope with bandwidth variability while navigating
    the trade-off between self-inflicted delay and link
    underutilization". Each CCA runs *alone* (per-user isolation, as on
    cellular links) on a link whose capacity wanders
    (Ornstein–Uhlenbeck, cellular-style fading); we report exactly that
    trade-off: fraction of the available capacity used vs the
    self-inflicted queueing delay. *)

type row = {
  cca : string;
  goodput_mbps : float;
  capacity_used : float;  (** goodput / time-averaged capacity *)
  mean_srtt_ms : float;
  queueing_ms : float;  (** mean srtt − propagation RTT *)
  retransmits : int;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
