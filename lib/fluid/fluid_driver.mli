(** A fluid population stepped on the DES clock.

    [attach] seals the engine and makes its stepper an ordinary
    {!Ccsim_engine.Sim.every} source at the engine's [dt_s], charged to
    the profiler's [Fluid] component. Every fluid step it:

    + feeds each coupled packet {!Ccsim_net.Link}'s delivered rate
      (EWMA-smoothed) and queue backlog into the fluid engine's link
      signals, so fluid flows see the packet share as cross traffic;
    + advances the fluid population one step;
    + applies the fluid served rate back to the packet link as a
      cross-traffic term ({!Ccsim_net.Link.set_cross_rate_bps}) and the
      fluid queue as a shared-buffer share
      ([Qdisc.set_cross_backlog]).

    With no couplings only the middle step runs: that is how a
    fluid-only population runs, on a sim of its own. The step builds
    no closure and boxes no float, so a population's step events
    allocate only what the engine's step does (nothing).

    Per-coupling byte-conservation invariants are registered on the
    sim's watchdog, and per-coupling timeline probes
    ([fluid_cross_bps], [fluid_cross_queue_bytes], [packet_cross_bps])
    on its timeline; a coupling-free attach registers neither. Like any
    periodic source the stepper keeps the run alive, so every caller
    runs the sim with [Sim.run ~until] and then calls {!catch_up}. *)

type t

val attach :
  Ccsim_engine.Sim.t ->
  Fluid_engine.t ->
  couplings:(Fluid_engine.link_id * Ccsim_net.Link.t) list ->
  t
(** Couple fluid links to packet links, seal the engine and start the
    stepper. The fluid engine must not have been stepped yet (raises
    [Invalid_argument]). Fluid links not listed evolve packet-free. *)

val catch_up : t -> until_s:float -> unit
(** Finish the run at [until_s]: take any step the sim's run left out
    (the stepper's clock adds [dt_s] each tick, so its last tick may
    round just past the horizon; packet signals stay at their last
    values), note the engine's link-step census on the ambient
    profile, if any, and sweep the sim's watchdog once. *)
