(** Declarative experiment scenarios.

    A scenario is a bottleneck (rate, delay, queue discipline), a set of
    flows (CCA x application x start time x optional per-flow shaping),
    optional background short-flow workload, and a duration. {!run}
    builds the simulation, executes it deterministically under the
    scenario's seed, and returns per-flow and aggregate results.

    This is the primary public API: every figure and experiment in the
    paper reduces to one or more scenarios. *)

type cca_spec =
  | Reno
  | Cubic
  | Bbr
  | Vegas
  | Copa
  | Ledbat  (** scavenger background transport (software updates) *)
  | Aimd of { a : float; b : float }
  | Nimbus of { capacity_bps : float }
      (** the Figure 3 probe: rate mode only, told the link capacity *)

type app_spec =
  | Bulk  (** persistently backlogged from [start] to the end of the run *)
  | Cbr_tcp of { rate_bps : float }
  | Cbr_udp of { rate_bps : float }  (** open loop; [cca] is ignored *)
  | Onoff of { rate_bps : float; mean_on : float; mean_off : float }
  | Video  (** adaptive bitrate over {!Ccsim_app.Video}'s fixed ladder *)
  | Speedtest of { duration : float }

type flow_spec = {
  label : string;
  cca : cca_spec;
  app : app_spec;
  start : float;
  ingress : Ccsim_net.Topology.ingress;  (** per-flow ISP shaping/policing *)
}

val flow :
  ?cca:cca_spec ->
  ?app:app_spec ->
  ?start:float ->
  ?ingress:Ccsim_net.Topology.ingress ->
  string ->
  flow_spec
(** Defaults: Reno bulk starting at 0, no shaping. Every flow runs to
    the end of the scenario over {!Ccsim_net.Topology.dumbbell}'s 1 ms
    edge link, with the receiver's default buffer, and is measured from
    max(warmup, [start]) to the scenario's duration. *)

type qdisc_spec =
  | Fifo of { limit_bytes : int option }
  | Drr of { quantum_bytes : int option; limit_bytes : int option }

type short_flows_spec = {
  arrival_rate : float;  (** flows per second *)
  mean_size_bytes : float;
  sf_stop : float option;
}

type rate_variation =
  | Steady
  | Ou_wander of { volatility : float }
      (** mean-reverting wander around [rate_bps] (cellular-style fading) *)

type t = {
  name : string;
  rate_bps : float;
  delay_s : float;  (** one-way bottleneck propagation *)
  qdisc : qdisc_spec;
  flows : flow_spec list;
  short_flows : short_flows_spec option;
  rate_variation : rate_variation;
  duration : float;
  warmup : float;  (** excluded from goodput/fairness metrics *)
  seed : int;
  monitor_interval : float;
}

val make :
  ?qdisc:qdisc_spec ->
  ?short_flows:short_flows_spec ->
  ?rate_variation:rate_variation ->
  ?duration:float ->
  ?warmup:float ->
  ?seed:int ->
  ?monitor_interval:float ->
  name:string ->
  rate_bps:float ->
  delay_s:float ->
  flow_spec list ->
  t
(** Defaults: drop-tail FIFO, steady rate, 30 s duration, 5 s warmup,
    seed 42, 100 ms monitoring. *)

val run : t -> Results.t
