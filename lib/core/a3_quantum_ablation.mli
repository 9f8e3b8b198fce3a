(** A3 (ablation) — DRR quantum vs isolation quality.

    DRR approximates max-min fairness to within one quantum per round;
    large quanta degrade short-timescale isolation (and therefore
    delay), tiny quanta cost scheduler work. The sweep runs the E1
    worst-case pairing (BBR vs Reno) under quanta from 1/4 to 16
    packets and reports fairness and the victim's queueing delay. *)

type row = {
  quantum_packets : float;
  jain : float;  (** between the two bulk flows *)
  reno_mbps : float;
  bbr_mbps : float;
  reno_srtt_ms : float;
  cbr_jitter_ms : float;
      (** inter-arrival jitter of a thin CBR flow sharing the scheduler —
          the metric the quantum actually moves *)
  utilization : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
