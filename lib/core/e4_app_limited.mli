(** E4 — application-limited flows get exactly their offered load (§2.2).

    Two CBR-over-TCP flows with different CCAs share an access link
    while their combined demand sweeps from well below to above the
    link capacity. Below capacity, each flow's allocation equals its
    demand, regardless of the CCA pairing; the CCA matters only once
    the demand sum crosses capacity. *)

type row = {
  offered_each_mbps : float;
  offered_sum_mbps : float;
  goodput_a_mbps : float;
  goodput_b_mbps : float;
  demand_satisfied_a : float;  (** goodput / offered *)
  demand_satisfied_b : float;
  jain : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
