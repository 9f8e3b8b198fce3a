(** Struct-of-arrays fluid population engine.

    Holds a population of fluid flows (rate ODEs for the {!Fluid_model}
    CCAs) sharing fluid links, advanced by forward Euler on a fixed
    step. Flow state lives in flat [float array]s (one scalar per flow)
    in flow-id order; at seal, a counting sort builds a CSR index of
    each link's flow ids, whose first part, the active prefix, holds
    the link's active flows in ascending id and is kept so as flows
    toggle. A step toggles the on/off flows whose toggle is due, then
    runs one link-major kernel that finishes a link (arrival, loss and
    service ratio, each active flow's derivative, Euler update, clamp
    and rate, queue settle, byte accounting, goodput) before moving to
    the next, allocating nothing; million-flow populations run in
    seconds per simulated second (EXPERIMENTS.md, "Throughput").

    Work follows what changes. The kernel walks each link's active
    prefix only. Toggles wait in a calendar filed by step, each no
    later than the first step whose clock reaches it, so a step visits
    only the flows filed for it and re-applies the toggle test there;
    an always-on population allocates no calendar. Each link carries a
    state byte that the step reads first. An idle link (no active flow,
    a queue of exactly 0.0) costs that byte: its arrival and served
    rate read 0.0 from its first idle step on, which is all the full
    pass would change. A link whose full step began and ended with a
    queue of exactly 0.0, had no packet signal, used the arrival it
    ended with and fit it, and left every flow at its cap and every
    BBR window still, is frozen: its next steps provably have the same
    inputs and only repeat the increments the full step computed. Such
    a step adds the link's bytes to the engine's offered and served
    totals, in link order, and defers the rest: the link records the
    step it froze at, and the missed steps are replayed (each window's
    increment, clamped; each goodput's; the link's own offered and
    served bytes), the same additions in the same order, when a toggle
    on the link or a packet signal thaws it, or when
    {!link_served_bytes}, {!link_residual_bytes}, {!flow_goodput_bps}
    or the per-link watchdog check reads it. Due toggles draw from the
    RNG in flow-id order and each link sums its active flows in
    flow-id order, so every result is bit for bit that of the earlier
    four-pass step, which the test suite keeps as its oracle.

    Queues are advanced explicitly from each step's arrival/service
    balance (operator splitting), which makes byte conservation
    [offered = dropped + served + Δqueue] exact by construction; the
    engine registers that identity with the ambient
    {!Ccsim_obs.Watchdog} at creation.

    The engine is a kernel: it builds, steps, reads and registers its
    invariant, and has no run loop. A population runs on a
    [Ccsim_engine.Sim] through [Fluid_driver], which steps it as a
    periodic event, so profiling, timeline sampling and watchdog sweeps
    happen in [Sim.run] as for packet runs. A caller that wants
    aggregate series registers {!aggregate} reads as the sim's timeline
    probes (P1 does).

    Build-then-seal: add links and flows, then step. {!seal}, the first
    {!step} or {!set_packet_signals} seals the population; [add_*]
    afterwards raise [Invalid_argument].

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

type aggregate = {
  arrival_bps : float;  (** the flows' summed sending rate at the last step *)
  served_bps : float;  (** the links' summed served rate at the last step *)
  queue_bytes : float;
  active_flows : int;  (** flows currently on *)
  contended_links : int;  (** links contended at some step so far *)
}

type t

val create :
  ?dt_s:float ->
  ?warmup_s:float ->
  ?payload_frac:(float [@ccsim.test_only "tests set the fluid payload share with it"]) ->
  seed:int ->
  unit ->
  t
(** The byte-conservation check is registered with the ambient
    {!Ccsim_obs.Scope}'s watchdog, if any, at creation. [dt_s]
    defaults to 10 ms. [warmup_s]
    excludes the start of the run from goodput accounting.
    [payload_frac] converts wire bytes to payload bytes (default
    MSS/(MSS+headers), matching the packet engine's framing). Raises
    [Invalid_argument] unless [dt_s] is finite and positive, [warmup_s]
    finite and non-negative, and [payload_frac] in (0, 1]. *)

val add_link : t -> capacity_bps:float -> buffer_bytes:int -> link_id
(** Raises [Invalid_argument] unless [capacity_bps] is finite and
    positive and [buffer_bytes] positive. *)

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
    activation. Raises [Invalid_argument] unless [rtt_base_s] and both
    on/off means are finite and positive and [cap_bps] is positive. *)

val seal : t -> unit
(** Seal the population: build the per-link index and the toggle
    calendar. Idempotent; the first {!step} seals too, so a driver
    seals up front only to keep that allocation out of its first step
    event. *)

val step : t -> unit
(** Advance one [dt_s]: process on/off toggles, integrate the flow
    ODEs, settle queues and byte accounting (a frozen link's flows and
    counters wait for their replay; see above). Seals the population
    on first call. Allocates nothing, replays included. *)

val dt_s : t -> float
val now_s : t -> float
val flows : t -> int

val set_packet_signals : t -> link:link_id -> float array -> backlog_bytes:int -> unit
(** [set_packet_signals t ~link rate ~backlog_bytes]: current
    packet-level cross traffic on a fluid link: delivered rate
    [rate.(0)] in bit/s (subtracted from the capacity the fluid share
    can use) and queue backlog (added to the fluid queueing delay). A
    negative rate or backlog counts as 0; a NaN rate raises
    [Invalid_argument]. The rate comes through a float-array slot, as
    [Sim.schedule_in]'s delay does, so [Fluid_driver]'s coupled step
    boxes no float. A signal thaws a frozen link. *)

val link_capacity_bps : t -> link_id -> float

val link_served_bps : t -> link_id -> float
(** Fluid load actually delivered at the last step — the cross-traffic
    rate the packet engine should see in hybrid mode. *)

val link_queue_bytes : t -> link_id -> float

val link_cross_into : t -> link_id -> float array -> unit
(** [link_cross_into t l out] stores {!link_served_bps} in [out.(0)]
    and {!link_queue_bytes} in [out.(1)]: the fluid cross traffic the
    packet side applies, read without boxing a float. *)

val link_contended_s : t -> link_id -> float
(** Cumulative time the link was contended: busy (arrival ≥ 95% of
    available capacity), at least two active flows, and a queue signal
    (loss, or ≥ 5 ms queueing delay) present. *)

val link_served_bytes : t -> link_id -> float

val link_residual_bytes : t -> link_id -> float
[@@ccsim.test_only "tests observe the fluid engine's per-flow and per-link state"]
(** [offered - dropped - served - queued] for one link; zero up to float
    noise unless accounting is corrupted. *)

val flow_goodput_bps : t -> flow_id -> float
[@@ccsim.test_only "tests observe the fluid engine's per-flow and per-link state"]
(** Mean payload goodput over the post-warmup window so far. *)

val link_steps : t -> int * int * int
(** [(idle, reduced, full)]: the link-steps taken so far by the idle
    skip, by the reduced step of a frozen link and by the full step.
    They sum to links × steps. [Fluid_driver.catch_up] notes them on
    the ambient {!Ccsim_obs.Profile}. *)

val totals : t -> totals
val residual_bytes : t -> float
(** Engine-wide [offered - dropped - served - queued]. *)

val aggregate : t -> aggregate
(** The population's state summed over its links, in link order, in
    one pass that boxes no per-link float. *)

val register_link_invariant : t -> component:string -> Ccsim_obs.Watchdog.t -> link_id -> unit
(** Register the per-link byte-conservation check on [w] — used by
    [Fluid_driver] so each hybrid coupling is individually watched. *)

val float_min : float -> float -> float
[@@ccsim.test_only "tests check the kernel's min against Float.min on every float class"]
(** [Float.min], bit for bit on every input, without its C call
    ([caml_signbit]) outside ties and NaNs; the kernel's own min. *)

val float_max : float -> float -> float
[@@ccsim.test_only "tests check the kernel's max against Float.max on every float class"]
(** [Float.max], likewise. *)

val exponential_draw : Ccsim_util.Rng.t -> float array -> mean:float -> float
[@@ccsim.test_only "tests check the toggle path's draw against Rng.exponential"]
(** [exponential_draw rng slot ~mean]: the toggle path's
    [Ccsim_util.Rng.exponential rng ~mean], for a finite positive
    [mean], with the uniform taken through [slot.(0)]. *)

val inject_accounting_skew : t -> link:link_id -> bytes:float -> unit
[@@ccsim.test_only "tests break conservation on purpose, to show the check fires"]
(** Test hook: corrupt one link's served-byte counter (and the engine
    total) so conservation checks must trip. Never called outside
    tests. *)
