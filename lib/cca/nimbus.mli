(** Nimbus (Goyal et al., SIGCOMM '22): rate-based congestion control
    with elasticity detection, the instrument behind the paper's §3.2
    active-measurement proposal.

    The sender superimposes small sinusoidal pulses (amplitude
    [pulse_amplitude] x the capacity estimate [mu], 5 Hz) on its pacing
    rate and estimates the cross-traffic rate

      z(t) = mu x r_in(t) / r_out(t) − r_in(t)

    from its own send rate [r_in], delivery rate [r_out], and a
    bottleneck-capacity estimate [mu]. If the cross traffic is *elastic*
    (buffer-filling CCAs such as Reno or BBR), it reacts to the pulses
    within an RTT and z(t) oscillates at the pulse frequency; inelastic
    traffic (CBR, application-limited video, short flows) does not.

    Every 0.5 s the probe scores the last 512 samples (100 Hz, 5.12 s).
    It reads three bins of z's spectrum, the bin nearest 5 Hz and its
    two neighbours ({!Ccsim_util.Fft.magnitude_at}), and keeps the
    largest magnitude. It does so for each candidate feedback delay of 0
    to 64 samples, aligning r_in to r_out, and takes the smallest of
    those. It divides that by the same three-bin magnitude of its own
    rate (floored at half the configured pulse), so a fully mirroring
    elastic response scores ~1 and unresponsive cross traffic scores ~0.
    The epoch runs on buffers the probe allocates once, at [create].

    With [mode_switching] on, the flow uses delay-based control when
    elasticity is low and switches to a TCP-competitive (virtual-Reno)
    rate when elasticity is high. The paper's measurement tool *disables*
    mode switching and keeps the pulses, using the reported elasticity
    purely as a contention signal — that is [`create ~mode_switching:false`]. *)

type handle = {
  elasticity : Ccsim_util.Timeseries.t;
      (** (time, elasticity) samples, one per estimation interval once the
          window has filled *)
  cross_rate : Ccsim_util.Timeseries.t;  (** (time, z) samples in bit/s *)
  mode : unit -> [ `Delay | `Competitive ]
    [@ccsim.test_only "tests observe Nimbus's mode switching"];
  capacity_estimate : unit -> float
    [@ccsim.test_only "tests observe Nimbus's capacity filter"];
      (** current mu, bit/s *)
}

val create :
  Ccsim_engine.Sim.t ->
  ?pulse_amplitude:float ->
  ?mode_switching:bool ->
  ?known_capacity_bps:float ->
  unit ->
  Cca.t * handle
(** Defaults: pulse amplitude 0.25 (must lie in (0, 1)), mode switching
    on. Fixed: 5 Hz pulses, 100 Hz sampling, a 512-sample window, and an
    elasticity threshold of 0.5 (enter competitive above 0.5, leave
    below 0.25). [known_capacity_bps] pins mu (as in a controlled
    emulation); otherwise mu is the windowed max of observed delivery
    rates. The sampling/pulse machinery runs on sim timers for the
    lifetime of the simulation. *)
