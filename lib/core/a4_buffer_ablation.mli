(** A4 (ablation) — bottleneck buffer depth vs BBR/Reno coexistence.

    Ware et al. [2] model how BBR's share against loss-based flows
    depends on the buffer: in shallow buffers BBR's inflight cap
    dominates and Reno starves; as the buffer deepens toward multiple
    BDPs, loss-based flows regain share. The sweep reproduces that
    shape on a FIFO bottleneck. *)

type row = {
  buffer_bdp : float;  (** buffer size in bandwidth-delay products *)
  bbr_mbps : float;
  reno_mbps : float;
  bbr_share : float;  (** of the two flows' combined goodput *)
  loss_rate : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
