(** Struct-of-arrays fluid population engine.

    Holds a population of fluid flows ({!Fluid_model} rate ODEs) sharing
    fluid links, integrated on a fixed step by {!Ccsim_util.Ode}. Flow
    state lives in flat [float array]s (one scalar per flow), so a step
    is a handful of array passes and million-flow populations run in
    seconds per simulated second (EXPERIMENTS.md, "Throughput").

    Queues are advanced explicitly from each step's arrival/service
    balance (operator splitting), which makes byte conservation
    [offered = dropped + served + Δqueue] exact by construction; the
    engine registers that identity with the ambient
    {!Ccsim_obs.Watchdog} at creation. Aggregate series are recorded
    into the ambient {!Ccsim_obs.Timeline} by the standalone {!run}
    loop.

    Build-then-seal: add links and flows, then step. The first {!step}
    (or {!run}, or {!set_packet_signals}) seals the population;
    [add_*] afterwards raise [Invalid_argument].

    Hybrid operation: {!set_packet_signals} feeds a link's packet-level
    cross traffic (delivered rate, queue backlog) into the fluid loss
    and RTT signals, and {!link_served_bps} is what the DES side applies
    as a cross-traffic rate — see [Fluid_driver]. *)

type link_id = int
type flow_id = int

type totals = {
  offered_bytes : float;
  served_bytes : float;
  dropped_bytes : float;
  queued_bytes : float;
}

type t

val loss_theta : float
(** Queue fill fraction where the fluid loss ramp starts (0.80). *)

val loss_p_max : float
(** Loss probability at a full buffer (0.25, quadratic ramp). *)

val default_dt_s : float
(** 10 ms. *)

val create :
  ?dt_s:float ->
  ?method_:[ `Euler | `Rk4 ] ->
  ?warmup_s:float ->
  ?payload_frac:float ->
  seed:int ->
  unit ->
  t
(** Instruments (timeline, watchdog) are taken from the ambient
    {!Ccsim_obs.Scope} at creation, mirroring [Sim.create]. [warmup_s]
    excludes the start of the run from goodput accounting.
    [payload_frac] converts wire bytes to payload bytes (default
    MSS/(MSS+headers), matching the packet engine's framing). *)

val add_link : t -> capacity_bps:float -> buffer_bytes:int -> link_id
val add_flow :
  t ->
  link:link_id ->
  model:Fluid_model.t ->
  rtt_base_s:float ->
  ?cap_bps:float ->
  ?on_off_s:float * float ->
  ?start_active:bool ->
  unit ->
  flow_id
(** [cap_bps] caps the flow's sending rate (application demand / access
    shaper); default unbounded (bulk). [on_off_s = (on_mean, off_mean)]
    makes the flow toggle with exponentially distributed periods drawn
    from the engine's seeded stream; window state resets on each
    activation. *)

val step : t -> unit
(** Advance one [dt_s]: process on/off toggles, integrate the flow
    ODEs, settle queues and byte accounting. Seals the population on
    first call. *)

val run : t -> until_s:float -> unit
(** Step until [until_s], sampling aggregate timeline series and
    sweeping the ambient watchdog at its interval (plus a final sweep).
    Use {!step} instead when an outer clock drives the engine (hybrid
    mode) — [run]'s sampling and sweeping are then the DES drivers'
    job. *)

val dt_s : t -> float
val now_s : t -> float
val flows : t -> int
val links : t -> int

val set_packet_signals : t -> link:link_id -> rate_bps:float -> backlog_bytes:int -> unit
(** Current packet-level cross traffic on a fluid link: delivered rate
    (subtracted from the capacity the fluid share can use) and queue
    backlog (added to the fluid queueing delay). *)

val link_capacity_bps : t -> link_id -> float

val link_arrival_bps : t -> link_id -> float
(** Fluid offered load at the last step. *)

val link_served_bps : t -> link_id -> float
(** Fluid load actually delivered at the last step — the cross-traffic
    rate the packet engine should see in hybrid mode. *)

val link_queue_bytes : t -> link_id -> float
val link_loss_frac : t -> link_id -> float
val link_active_flows : t -> link_id -> int

val link_contended_s : t -> link_id -> float
(** Cumulative time the link was contended: busy (arrival ≥ 95% of
    available capacity), at least two active flows, and a queue signal
    (loss, or ≥ 5 ms queueing delay) present. *)

val link_served_bytes : t -> link_id -> float

val link_residual_bytes : t -> link_id -> float
(** [offered - dropped - served - queued] for one link; zero up to float
    noise unless accounting is corrupted. *)

val flow_rate_bps : t -> flow_id -> float
(** Instantaneous wire sending rate at the last step. *)

val flow_goodput_bps : t -> flow_id -> float
(** Mean payload goodput over the post-warmup window so far. *)

val totals : t -> totals
val residual_bytes : t -> float
(** Engine-wide [offered - dropped - served - queued]. *)

val register_link_invariant : t -> component:string -> Ccsim_obs.Watchdog.t -> link_id -> unit
(** Register the per-link byte-conservation check on [w] — used by
    [Fluid_driver] so each hybrid coupling is individually watched. *)

val inject_accounting_skew : t -> link:link_id -> bytes:float -> unit
(** Test hook: corrupt one link's served-byte counter (and the engine
    total) so conservation checks must trip. Never called outside
    tests. *)
