(** Offline elasticity estimation (Nimbus, §3.2).

    Computes the elasticity metric of recorded cross-traffic-estimate
    and own-send-rate signals: the one-sided spectral magnitude of the
    (mean-removed) cross-traffic estimate at the probe's pulse frequency
    (the largest of the nearest bin and its two neighbours,
    {!Ccsim_util.Fft.magnitude_at}), normalised by the corresponding
    magnitude of the sender's own rate signal. Elastic (buffer-filling)
    cross traffic mirrors the pulses and scores near or above 1;
    inelastic traffic scores near 0.

    The online estimator embedded in {!Ccsim_cca.Nimbus} uses the same
    construction over a sliding window; this module exists to score
    recorded time series and to test the estimator against synthetic
    signals. *)

val score :
  sample_rate:float -> pulse_freq:float -> cross:float array -> own:float array -> float
(** Both signals must have the same power-of-two length. The [own]
    magnitude is floored at a small epsilon to avoid division blow-ups
    when the probe was quiescent. *)

val windowed :
  sample_rate:float ->
  pulse_freq:float ->
  window:int ->
  cross:Ccsim_util.Timeseries.t ->
  own:Ccsim_util.Timeseries.t ->
  Ccsim_util.Timeseries.t
(** Slide a [window]-sample (power of two) window over the two series
    (resampled to [sample_rate]) and emit one elasticity score per half
    window, timestamped at the window's end. *)

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
