(** Time-varying link capacity processes.

    §2.3/§5.1 of the paper argue that variable-rate links (cellular,
    satellite, even future fiber) are where congestion control work
    should focus once contention stops mattering. These processes drive
    {!Link.set_rate} on a timer to emulate such links.

    All processes are deterministic given their RNG stream. *)

type t

val markov :
  Ccsim_engine.Sim.t ->
  link:Link.t ->
  rng:Ccsim_util.Rng.t ->
  states_bps:float array ->
  ?mean_dwell_s:float ->
  unit ->
  t
(** Jump between the given capacity states, staying in each for an
    exponentially distributed dwell time (default mean 2 s) — the
    classic coarse cellular model. *)

val ornstein_uhlenbeck :
  Ccsim_engine.Sim.t ->
  link:Link.t ->
  rng:Ccsim_util.Rng.t ->
  mean_bps:float ->
  ?volatility:float ->
  unit ->
  t
(** Mean-reverting continuous wander: every 100 ms the rate moves
    toward [mean_bps] with a pull of 0.3/s plus Gaussian noise of
    standard deviation [volatility] x mean per sqrt-second (default
    0.15), floored at 5% of the mean. Models fast fading on a cellular
    link. *)

val rate_series : t -> Ccsim_util.Timeseries.t
(** The (time, rate) trajectory applied so far. *)

val mean_rate : t -> float
(** Time-weighted mean of the applied trajectory (0 when empty). *)
