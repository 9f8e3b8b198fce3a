(** Offline analysis of exported timeline series.

    Parses a `--series` NDJSON file back into series and reruns the
    lib/measure detectors over them: the Fig 2 change-point rule
    ({!Changepoint.pelt} + largest level shift vs mean) on NDT
    throughput traces, and the Fig 3 elasticity rule (steady-state p90
    vs threshold) on Nimbus elasticity series. Timeline floats are
    exported with round-trip precision, so the offline verdicts match
    the in-simulation ones exactly. *)

type series = {
  job : string option;
  name : string;
  labels : (string * string) list;
  times : float array;
  values : float array;
}

exception Parse_error of string
(** The same exception as {!Ccsim_obs.Json.Parse_error}. *)

type json = Ccsim_obs.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Obj of (string * json) list
  | Arr of json list

val json_of_string : string -> json
(** {!Ccsim_obs.Json.parse}, the reader behind {!of_string}. Raises
    {!Parse_error}. *)

val of_string : string -> series list
(** Parse NDJSON content (one [{"series", "labels", "t", "v"}] object
    per line; blank lines ignored; points with a null ["v"] skipped).
    Series appear in first-occurrence order, points in line order.
    Raises {!Parse_error} (with a line number) on malformed input. *)

val load : string -> series list
(** {!of_string} over a file's contents. *)

val filter : series list -> name:string -> series list

val ndt_series_name : string
(** ["ndt_throughput_mbps"] — recorded by fig2 for candidate flows. *)

val elasticity_series_name : string
(** ["nimbus_elasticity"] — recorded by the Nimbus CCA. *)

type changepoint_row = {
  cp_series : series;
  change_points : int list;
  largest_shift : float;
  mean : float;
  contention_consistent : bool;
}

val changepoint_of : ?shift_threshold:float -> series -> changepoint_row
(** The Fig 2 Candidate rule over one series' values:
    [Changepoint.pelt], largest level shift, and
    [contention_consistent] when the shift is at least
    [shift_threshold] (default 0.2) of the mean. *)

type elasticity_row = {
  el_series : series;
  samples : int;
  mean_elasticity : float;
  p90_elasticity : float;
  classified_elastic : bool;
}

val elasticity_of :
  ?warmup:float -> ?hi:float -> ?threshold:float -> series -> elasticity_row
(** The Fig 3 rule over one series: p90 of samples with
    [warmup <= t <= hi] (inclusive, matching [Timeseries.between]);
    elastic when p90 exceeds [threshold] (default 0.5). *)

type explain_row = {
  ex_job : string option;
  ex_scenario : string;  (** ["scenario"] label, [""] when absent *)
  ex_flow : string;  (** ["flow"] label *)
  ex_goodput_bps : float;  (** mean of [flow_goodput_bps] over the window *)
  ex_limits : (string * float) list;
      (** cumulative seconds per send limit, in fixed order
          app/rwnd/cwnd/pacing/recovery (0 when a limit series is absent) *)
  ex_dominant : string;  (** limit with the most seconds, ["-"] for non-TCP flows *)
  ex_dominant_s : float;
  ex_queue_delay_share : float;
      (** (mean srtt − min rtt) / mean srtt over the window, in [0, 1] *)
  ex_occupancy_share : float;
      (** flow's share of bottleneck serialization time across the scenario *)
  ex_drop_share : float;  (** flow's share of bottleneck drops *)
  ex_contended_s : float;
      (** connection age minus app/rwnd-limited time: the span with unmet
          demand where the network set the flow's rate *)
  ex_verdict : string option;
      (** the scenario's Nimbus cross-traffic verdict (["elastic"] /
          ["inelastic"]), when a [nimbus_elasticity] series is present *)
}

val explain :
  ?warmup:float -> ?hi:float -> ?threshold:float -> series list -> explain_row list
(** Per-flow contention diagnosis from the attribution series recorded
    by a timeline-enabled run ([flow_limited_s], [flow_bneck_busy_s],
    [flow_bneck_drops], [flow_goodput_bps], [flow_srtt_s],
    [flow_min_rtt_s]). Flows are grouped per (job, scenario); the
    scenario's {!elasticity_series_name} verdict — computed with
    {!elasticity_of} over the same window, so it agrees bit-for-bit
    with the online detector — attaches to every flow row of that
    scenario. Rows appear in series first-occurrence order. *)

val render_explain :
  ?warmup:float -> ?hi:float -> ?threshold:float -> series list -> string
(** Human-readable {!explain} table (the body of [ccsim explain]). *)

val render :
  ?warmup:float -> ?hi:float -> ?threshold:float -> ?shift_threshold:float ->
  series list -> string
(** Human-readable report: an elasticity table for
    {!elasticity_series_name} series, a change-point table for
    {!ndt_series_name} series, and summary statistics for everything
    else. *)
