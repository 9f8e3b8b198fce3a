(** E2 — ISP throttling pins the allocation, not the CCA (§2.1).

    A bulk flow crosses an otherwise-idle 100 Mbit/s bottleneck behind a
    per-user token-bucket element configured for a 20 Mbit/s plan:
    shaping (queue the excess) and policing (drop the excess, as Flach
    et al. observed on 7% of paths). Whatever the CCA — Reno, Cubic, or
    BBR — the achieved rate is the plan rate; the CCA only changes how
    much loss/queueing is suffered on the way there. *)

type row = {
  cca : string;
  management : string;  (** none / shaper / policer *)
  goodput_mbps : float;
  retransmits : int;
  mean_srtt_ms : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
