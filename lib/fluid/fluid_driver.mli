(** Hybrid coupling: the fluid population stepped on the DES clock.

    [attach] installs a periodic driver on the sim (via
    {!Ccsim_engine.Sim.periodic_driver}) that, every fluid step:

    + feeds each coupled packet {!Ccsim_net.Link}'s delivered rate
      (EWMA-smoothed) and queue backlog into the fluid engine's link
      signals, so fluid flows see the packet share as cross traffic;
    + advances the fluid population one step;
    + applies the fluid served rate back to the packet link as a
      cross-traffic term ({!Ccsim_net.Link.set_cross_rate_bps}) and the
      fluid queue as a shared-buffer share
      ([Qdisc.set_cross_backlog]).

    Per-coupling byte-conservation invariants are registered on the
    sim's watchdog, and per-coupling timeline probes
    ([fluid_cross_bps], [fluid_cross_queue_bytes], [packet_cross_bps])
    on its timeline. Like all drivers, the stepper only stays alive
    while packet events remain; call {!catch_up} after [Sim.run] if
    fluid time must reach the horizon regardless. *)

type t

val attach :
  Ccsim_engine.Sim.t ->
  Fluid_engine.t ->
  couplings:(Fluid_engine.link_id * Ccsim_net.Link.t) list ->
  t
(** Couple fluid links to packet links and start the stepper. The
    fluid engine must not have been stepped yet (raises
    [Invalid_argument]). Fluid links not listed evolve packet-free. *)

val catch_up : t -> until_s:float -> unit
(** Step the coupled system until fluid time reaches [until_s] (packet
    signals frozen at their last values — the DES is drained), then
    sweep the sim's watchdog once. *)
