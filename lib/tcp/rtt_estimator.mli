(** RTT estimation and retransmission-timeout computation (RFC 6298,
    Jacobson/Karels). *)

type t

val create : ?min_rto:(float [@ccsim.test_only "tests set the RTO floor with it"]) -> unit -> t
(** Defaults: [min_rto] 0.2 s (Linux-like rather than RFC's 1 s, so
    short simulations aren't dominated by the floor). The RTO is capped
    at 60 s. *)

val observe : t -> float -> unit
(** Feed an RTT sample in seconds (must be positive). Resets any RTO
    backoff. *)

val srtt : t -> float
(** Smoothed RTT; 0 before the first sample. *)

val rttvar : t -> float [@@ccsim.test_only "tests check the RFC 6298 estimator"]
val min_rtt : t -> float
(** Lifetime minimum sample; [infinity] before the first sample. *)

val rto : t -> float
(** Current retransmission timeout, including backoff. Before any sample:
    1 s (RFC 6298 initial value), clamped to the configured bounds. *)

val backoff : t -> unit
(** Double the RTO (up to the 60 s cap) after a timeout fires. *)
