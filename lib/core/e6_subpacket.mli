(** E6 — sub-packet BDP regimes starve flows over short timescales
    (§2.3, Chen et al.).

    N Reno flows share a link whose bandwidth-delay product is below one
    packet. Timeout-driven dynamics hand the link to an arbitrary
    subset of flows for seconds at a time: short-window Jain indices
    collapse and some flows see near-zero throughput over multi-second
    windows even though long-run shares look tolerable. Per-flow fair
    queueing removes the starvation — the same isolation argument at
    the other end of the bandwidth spectrum. *)

type row = {
  n_flows : int;
  qdisc : string;
  jain_long : float;  (** over the whole measurement window *)
  jain_short_p10 : float;  (** 10th percentile of per-2s-window Jain *)
  starved_windows : float;
      (** fraction of (flow x 2s-window) samples below 10% of fair share *)
  min_flow_mbps : float;
  max_flow_mbps : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
