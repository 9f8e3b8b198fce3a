(** Periodic samplers that turn live simulation state into time series. *)

module Flow_monitor : sig
  type t

  val create :
    Ccsim_engine.Sim.t ->
    sender:Ccsim_tcp.Sender.t ->
    ?label:string ->
    ?interval:float ->
    unit ->
    t
  (** Samples the sender every [interval] (default 100 ms): goodput and
      srtt. Raises [Invalid_argument] if [interval] is not positive.
      When the sim carries a timeline, also registers per-flow probes
      ([flow_goodput_bps], [flow_cwnd_bytes], [flow_srtt_s],
      [flow_inflight_bytes]) labelled with [label] (default: the
      sender's flow id). *)

  val throughput : t -> Ccsim_util.Timeseries.t
  (** Per-interval goodput in bit/s, derived from acked-byte deltas. *)

  val srtt : t -> Ccsim_util.Timeseries.t
end

module Queue_monitor : sig
  type t

  val create :
    Ccsim_engine.Sim.t ->
    qdisc:Ccsim_net.Qdisc.t ->
    ?interval:(float [@ccsim.test_only "tests set the queue monitor's sampling with it"]) ->
    unit ->
    t
  (** Samples backlog every [interval] (default 10 ms). Raises
      [Invalid_argument] if [interval] is not positive. When the sim
      carries a timeline, also registers [queue_backlog_bytes] and
      [queue_drops_total] probes labelled with the qdisc name. *)

  val mean_backlog_bytes : t -> float
  val max_backlog_bytes : t -> float
end
