(** Figure 3's elasticity verdict (Nimbus, §3.2).

    The samples come from the online estimator embedded in
    {!Ccsim_cca.Nimbus}: the one-sided spectral magnitude of the
    (mean-removed) cross-traffic estimate at the probe's pulse frequency,
    normalised by the corresponding magnitude of the sender's own rate
    signal. Elastic (buffer-filling) cross traffic mirrors the pulses and
    scores near or above 1; inelastic traffic scores near 0. This module
    turns a run's steady-state samples into the figure's verdict. *)

type verdict = {
  samples : int;
  mean : float;  (** 0 without samples *)
  p90 : float;  (** 0 without samples *)
  elastic : bool;  (** [p90 > threshold] *)
}

val verdict : ?threshold:float -> float array -> verdict
(** Figure 3's rule over a run's steady-state elasticity samples:
    elastic when their 90th percentile exceeds [threshold] (default
    0.5, as used for Nimbus's mode switch). Contention is intermittent
    (loss-based cross traffic responds hardest around its backoff
    episodes), so the rule keys on the upper tail, not the mean. No
    samples is inelastic. *)
