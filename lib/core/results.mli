(** Results of a scenario run. *)

type flow_result = {
  label : string;
  goodput_bps : float;
      (** receiver-side goodput over the measurement window (after
          warmup, from the flow's start) *)
  offered_bps : float;
      (** application offered load over the same window when known
          (CBR/on-off); equals goodput for bulk *)
  bytes_acked : int [@ccsim.test_only "tests check per-flow accounting"];
  retransmits : int;
  mean_srtt_s : float;  (** mean of sampled srtt; 0 for UDP *)
  throughput : Ccsim_util.Timeseries.t;  (** per-interval goodput, bit/s *)
  nimbus : Ccsim_cca.Nimbus.handle option;
  video : Ccsim_app.Video.stats option;
  speedtest : Ccsim_app.Speedtest.result option;
  jitter_s : float;  (** inter-arrival jitter at the receiver *)
}

type t = {
  scenario_name : string;
  duration : float;
  flows : flow_result list;
  jain_index : float;  (** over the TCP+UDP goodputs of labelled flows *)
  utilization : float;  (** bottleneck, whole run *)
  bottleneck_drops : int;
  bottleneck_loss_rate : float;
  mean_queue_bytes : float;
  short_flow_stats : short_flow_stats option;
  faults : Ccsim_faults.Injector.summary option;
      (** Injector lifecycle/wire counters when a fault plan was armed
          (ambient {!Ccsim_faults.Plan.armed} or experiment-supplied);
          [None] on a fault-free run. *)
}

and short_flow_stats = {
  spawned : int;
  completed : int;
  fraction_in_initial_window : float;
  completion_times : Ccsim_util.Cdf.t option;
}

val find : t -> string -> flow_result
(** Look up a flow by label. Raises [Not_found]. *)

val goodputs : t -> float array
(** Goodputs of all labelled flows, scenario order. *)

val pp_summary : Format.formatter -> t -> unit
