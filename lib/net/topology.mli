(** Canonical experiment topologies.

    The paper's scenarios (access links, peering links, emulated Mahimahi
    paths) all reduce to a dumbbell: per-flow edge links feeding a shared
    bottleneck, with an uncongested reverse path for acks. Optional
    per-flow ingress elements model ISP shaping/policing. *)

type ingress =
  | No_ingress
  | Shape of { rate_bps : float; burst_bytes : int }  (** token-bucket shaper *)
  | Police of { rate_bps : float; burst_bytes : int }  (** token-bucket policer *)

type t = {
  sim : Ccsim_engine.Sim.t;
  bottleneck : Link.t;
  fwd_dispatch : Dispatch.t;  (** receivers register data handlers here *)
  rev_dispatch : Dispatch.t;  (** senders register ack handlers here *)
  fwd_entry : flow:int -> Packet.t -> unit;  (** data injection point for a flow *)
  rev_entry : flow:int -> Packet.t -> unit;  (** ack injection point for a flow *)
  one_way_delay : flow:int -> float;  (** base propagation delay, one way *)
}

val dumbbell :
  Ccsim_engine.Sim.t ->
  rate_bps:float ->
  delay_s:float ->
  ?qdisc:Qdisc.t ->
  ?edge_delay:(int -> float) ->
  ?ingress:(int -> ingress) ->
  unit ->
  t
(** [dumbbell sim ~rate_bps ~delay_s ()] builds a shared bottleneck of the
    given rate with one-way propagation [delay_s].

    - [qdisc]: bottleneck queue (default drop-tail FIFO).
    - [edge_delay flow]: extra one-way propagation on a flow's edge link
      (default 1 ms), providing RTT diversity.
    - [ingress flow]: shaping/policing applied to the flow's traffic
      before the bottleneck.

    Edge links and the reverse path for acks run at 100x the bottleneck
    rate, so they never congest; the reverse path has its own links and
    never contends with forward data.

    Edge links and ingress elements are created lazily, one per flow id,
    on first use of [fwd_entry]/[rev_entry]. *)

val base_rtt : t -> flow:int -> float
[@@ccsim.test_only "tests check the dumbbell's propagation RTT"]
(** Two-way propagation delay for a flow (excludes serialization and
    queueing). *)
