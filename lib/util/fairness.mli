(** Fairness and harm metrics for bandwidth allocations.

    The paper's framing contrasts three lenses on "who got what":
    Jain's fairness index [4], max-min fair shares enforced by fair
    queueing [5], and Ware et al.'s harm metric [68] which compares an
    allocation against the solo (uncontended) performance. *)

val jain_index : float array -> float
(** Jain's fairness index: (Σx)² / (n · Σx²); 1 when all equal, 1/n when
    one flow takes everything. Raises [Invalid_argument] on an empty array
    or any negative allocation; returns 1.0 when all allocations are 0. *)

val max_min_with_weights :
  capacity:float -> demands:float array -> weights:float array -> float array
(** Weighted max-min (what WFQ/DRR with per-flow quanta enforces). *)

val harm : solo:float -> contended:float -> float
(** Ware et al.'s harm for a "more is better" metric such as throughput:
    (solo − contended) / solo, clamped to [0, 1]. Zero when contention did
    not hurt. Raises [Invalid_argument] if [solo <= 0]. *)

val harm_lower_is_better : solo:float -> contended:float -> float
(** Harm for a "less is better" metric such as latency:
    (contended − solo) / contended, clamped to [0, 1]. Raises
    [Invalid_argument] if [contended <= 0]. *)

val starvation_episodes :
  throughput:float array -> fair_share:float -> threshold:float -> int
(** Count of samples in which throughput fell below [threshold] *
    [fair_share]. The sub-packet-regime experiment (E6) counts its
    starved windows (à la Chen et al.) with it, at a threshold of 0.1. *)
