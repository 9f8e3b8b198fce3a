(** TCPInfo-style telemetry snapshots.

    Carries the fields of the Linux [tcp_info]/NDT schema that the
    paper's §3.1 M-Lab analysis consumes: acknowledged bytes, the
    minimum RTT, the connection's age and — crucially — the cumulative
    time the connection spent limited by the application
    ([AppLimited]), the receiver's window ([RWndLimited]), or the
    congestion window. *)

type t = {
  at : float;  (** snapshot time *)
  bytes_acked : int;
  min_rtt : float;
  app_limited_s : float;  (** cumulative seconds app-limited *)
  rwnd_limited_s : float;
  cwnd_limited_s : float;
  pacing_limited_s : float;
      (** cumulative seconds the next send waited only on the pacing
          clock (previously folded into serialization busy time) *)
  recovery_s : float;  (** cumulative seconds spent in loss recovery *)
  elapsed_s : float;  (** connection age at the snapshot *)
}

val throughput_bps : prev:t -> cur:t -> float
(** Goodput between two snapshots, from acked bytes. Raises
    [Invalid_argument] when [cur] does not strictly follow [prev]. *)

val app_limited_fraction : t -> float [@@ccsim.test_only "tests check the limited-time fractions"]
(** Fraction of the connection's lifetime spent app-limited. *)

val rwnd_limited_fraction : t -> float [@@ccsim.test_only "tests check the limited-time fractions"]
