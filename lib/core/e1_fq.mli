(** E1 — fair queueing eliminates CCA dynamics (§2.1).

    Heterogeneous CCA pairs share a bottleneck under drop-tail FIFO and
    under DRR fair queueing. Under FIFO the allocation is whatever the
    CCA dynamics produce (BBR dominates Reno, Cubic beats Reno, Vegas
    starves); under per-flow FQ every pairing converges to the max-min
    share regardless of CCA — "a universal deployment of fair queueing
    would entirely eliminate the role of CCA dynamics in determining
    bandwidth allocations". *)

type row = {
  pair : string;
  qdisc : string;
  goodput_a_mbps : float;
  goodput_b_mbps : float;
  jain : float;
  utilization : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
