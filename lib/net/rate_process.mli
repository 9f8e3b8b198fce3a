(** Time-varying link capacity.

    §2.3/§5.1 of the paper argue that variable-rate links (cellular,
    satellite, even future fiber) are where congestion control work
    should focus once contention stops mattering. The process here
    drives {!Link.set_rate} on a timer to emulate such a link (x1), and
    is deterministic given its RNG stream. *)

type t

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
[@@ccsim.test_only "tests check the applied rate trajectory"]
(** The (time, rate) trajectory applied so far. *)

val mean_rate : t -> float [@@ccsim.test_only "tests check the applied rate trajectory"]
(** Time-weighted mean of the applied trajectory (0 when empty). *)
