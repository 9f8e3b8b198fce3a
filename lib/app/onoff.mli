(** On/off (bursty) source over TCP: alternates exponentially-distributed
    ON periods, during which it offers a configured rate, with OFF
    periods of silence. Models interactive/bursty applications and the
    jitter-inducing traffic of §5.2. *)

type t

val start :
  Ccsim_engine.Sim.t ->
  sender:Ccsim_tcp.Sender.t ->
  rng:Ccsim_util.Rng.t ->
  rate_bps:float ->
  ?mean_on:float ->
  ?mean_off:float ->
  unit ->
  t
(** Defaults: mean ON 0.5 s, mean OFF 0.5 s. Offers its rate in 10 ms
    ticks until the end of the run. *)

val bytes_offered : t -> int
val on_fraction : t -> float [@@ccsim.test_only "tests check the on/off duty cycle"]
(** Fraction of elapsed time spent in the ON state so far. *)
