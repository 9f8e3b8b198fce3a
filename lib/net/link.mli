(** A unidirectional link: transmission rate + propagation delay + qdisc.

    Packets offered with {!send} are enqueued into the qdisc; the link
    serializes one packet at a time at its current rate and delivers each
    to the [sink] one propagation delay after serialization completes.
    The rate can change mid-simulation ({!set_rate}), which models
    cellular/satellite capacity variation; an in-flight serialization
    finishes at the old rate.

    When the ambient {!Ccsim_obs.Scope} carries instruments at
    {!create} time, the link wraps its qdisc with
    {!Qdisc_obs.instrument}, maintains [link_tx_bytes_total],
    [link_tx_packets_total], [link_rate_changes_total] counters and
    [link_rate_bps] / [link_busy_seconds_total] gauges, and journals a
    debug-severity ["packet"]-class event per delivery. Under the
    default empty scope none of this exists and behaviour is
    byte-identical. *)

type t

type loss_model =
  | Uniform of { p : float }  (** i.i.d. per-packet wire loss *)
  | Gilbert_elliott of {
      p_enter : float;  (** good→bad transition probability, per packet *)
      p_exit : float;  (** bad→good transition probability, per packet *)
      loss_good : float;  (** loss probability in the good state *)
      loss_bad : float;  (** loss probability in the bad (burst) state *)
    }
(** Non-congestive wire-loss processes ({!set_loss_model}). A lost
    packet consumes its serialization time but never reaches the sink —
    loss that is {e not} caused by queue overflow, the regime where
    elasticity detection must stay correct. *)

val create :
  Ccsim_engine.Sim.t ->
  ?name:string ->
  rate_bps:float ->
  delay_s:float ->
  ?qdisc:Qdisc.t ->
  sink:(Packet.t -> unit) ->
  unit ->
  t
(** Default qdisc: {!Fifo.create}[ ()]. Rate must be positive, delay
    non-negative, neither NaN; otherwise raises [Invalid_argument]
    naming [Link.create]. [name] (default ["link"]) is the hop label carried by
    lifecycle spans and flow-attribution probes. *)

val send : t -> Packet.t -> unit
[@@ccsim.test_only "tests offer packets to a bare link; topologies use as_sink"]
(** Offer a packet (may be dropped by the qdisc). *)

val as_sink : t -> Packet.t -> unit

val rate_bps : t -> float
val set_rate : t -> float -> unit
(** Must be positive, not NaN (raises [Invalid_argument]). Takes
    effect at the next serialization. *)

val set_cross_rate_bps : t -> float array -> unit
(** [set_cross_rate_bps t cross] sets the fluid cross-traffic rate
    sharing the wire (hybrid mode) to [cross.(0)] bit/s: packets
    serialize at [rate - cross], floored at 1% of [rate] so the packet
    share degrades instead of stalling. Must be non-negative (NaN is
    refused); takes effect at the next serialization. Updated every
    step by [Ccsim_fluid.Fluid_driver]; the rate comes through the
    float-array slot, so that step boxes no float. *)

val cross_rate_bps : t -> float [@@ccsim.test_only "tests observe the coupled fluid cross rate"]
(** Current fluid cross-traffic rate (0 outside hybrid mode). *)

val qdisc : t -> Qdisc.t

val flow_busy_seconds : t -> flow:int -> float
(** [flow]'s share of the link's serialization time — its bottleneck
    occupancy.
    Accounted only when the ambient scope carries a timeline or metrics
    at {!create} time; 0 otherwise. *)

val flow_drops : t -> flow:int -> int
(** Qdisc drops charged to [flow] (tail, head, and flush drops alike).
    Accounted under the same condition as {!flow_busy_seconds}. *)

val utilization : t -> now:float -> float
(** Cumulative serialization time over [now]; 0 at time 0. *)

val bytes_delivered : t -> int

(** {1 Fault-injection hooks}

    Driven by [Ccsim_faults.Injector]; every setter may also be used
    directly in tests. Impairment state is allocated lazily by the
    first setter, so a link that never sees a fault keeps its
    byte-identical fast path. Stochastic impairments draw from the
    stream installed with {!set_fault_rng} (SplitMix64, seeded by the
    fault plan — never a global PRNG), with a fixed per-packet draw
    order so a [(plan, seed)] pair reproduces exactly. *)

val set_fault_rng : t -> Ccsim_util.Rng.t -> unit
(** Install the random stream the stochastic impairments draw from.
    Must be called before arming loss/corruption/duplication/reorder
    (raises [Invalid_argument] otherwise). *)

val set_outage : t -> bool -> unit
(** [set_outage t true] takes the link down: serialization pauses, the
    qdisc keeps accepting (and eventually tail-dropping) arrivals, and
    an in-flight packet finishes. [set_outage t false] restores the
    link and resumes serialization from the backlog. *)

val is_down : t -> bool [@@ccsim.test_only "tests observe a fault plan's outage state"]

val set_loss_model : t -> loss_model option -> unit
(** Arm (or clear, with [None]) a wire-loss process. Arming resets the
    Gilbert–Elliott chain to the good state. Probabilities must lie in
    [\[0, 1\]]. *)

val set_corrupt_p : t -> float -> unit
(** Per-packet bit-corruption probability: a corrupted packet is
    delivered in time but checksum-discarded at the receiving end, so
    it behaves as non-congestive loss journaled as ["corrupt"]. 0
    disables. *)

val set_duplicate_p : t -> float -> unit
(** Per-packet duplication probability: the sink sees a ghost copy of
    the packet at the same delivery time. 0 disables. *)

val set_reorder : t -> (float * float) option -> unit
(** [Some (p, extra_s)]: with probability [p] a delivered packet's
    propagation is stretched by [extra_s] seconds, letting later
    packets overtake it. [None] disables. *)

val set_spike_delay : t -> float -> unit
(** Extra propagation delay applied to every delivery while a delay
    spike is live; 0 restores the base delay. *)

val wire_lost_packets : t -> int
val wire_corrupted_packets : t -> int
val wire_duplicated_packets : t -> int
[@@ccsim.test_only "tests count the fault injector's duplicates"]
val wire_reordered_packets : t -> int
(** Cumulative impairment counters (0 when no fault was ever armed). *)
