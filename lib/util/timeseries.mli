(** Time-stamped float series.

    Telemetry from the simulator (per-flow throughput, queue occupancy,
    Nimbus cross-traffic estimates) is collected as append-only (time,
    value) series and post-processed with the helpers here: converting
    cumulative byte counters into rates, windowed selection, means. *)

type t

val create : unit -> t

val add : t -> time:float -> value:float -> unit
(** Append a point. Times must be non-decreasing; raises
    [Invalid_argument] otherwise. *)

val length : t -> int
val is_empty : t -> bool

val times : t -> float array
val values : t -> float array

val to_list : t -> (float * float) list

val value_at : t -> float -> float [@@ccsim.test_only "tests read a series at a time"]
(** [value_at ts time] is the value of the most recent point at or before
    [time] (zero-order hold). Raises [Invalid_argument] if [time] precedes
    the first point or the series is empty. *)

val rate_of_cumulative : t -> interval:float -> t
(** Interpret values as a cumulative counter (e.g. bytes acked) and
    produce a per-interval rate series: point at time [t_i] holds
    [(c(t_i) - c(t_i - interval)) / interval]. *)

val between : t -> lo:float -> hi:float -> t
(** Sub-series with times in [\[lo, hi\]]. *)

val mean_value : t -> float
(** Mean of the values. Raises [Invalid_argument] when empty. *)

val time_weighted_mean : t -> until:float -> float
(** Mean weighted by holding time (zero-order hold), up to [until].
    Raises [Invalid_argument] when empty or [until] precedes the start. *)
