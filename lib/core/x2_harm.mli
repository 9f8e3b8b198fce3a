(** X2 (extension) — Ware et al.'s harm metric across CCA pairings [68].

    The related-work section points at "Beyond Jain's Fairness Index":
    judge a CCA pairing by how much the contender *hurts* a victim
    relative to the victim's solo performance, on both throughput
    (more-is-better) and delay (less-is-better). For every ordered
    (victim, contender) pair we run the victim alone and then against
    the contender on the same FIFO bottleneck, and report both harms —
    the matrix a deployment-gatekeeping analysis would use. *)

type row = {
  victim : string;
  contender : string;
  solo_mbps : float;
  contended_mbps : float;
  throughput_harm : float;  (** (solo − contended) / solo, clamped to [0,1] *)
  solo_srtt_ms : float;
  contended_srtt_ms : float;
  latency_harm : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
