(** A1 (ablation) — Nimbus pulse amplitude vs elasticity separation.

    DESIGN.md stars the elasticity estimator's construction; this
    ablation sweeps the probe's pulse amplitude and measures the
    separation between an elastic case (Reno bulk cross traffic) and an
    inelastic one (CBR UDP). Too-small pulses don't move elastic cross
    traffic enough to register; very large pulses disturb the path and
    the probe's own throughput. The default (0.25 x capacity) sits on
    the plateau. *)

type row = {
  amplitude : float;  (** fraction of link capacity *)
  elastic_p90 : float;  (** p90 elasticity vs Reno bulk *)
  inelastic_p90 : float;  (** p90 elasticity vs CBR UDP *)
  separation : float;  (** elastic − inelastic *)
  both_classified_correctly : bool;
  probe_goodput_mbps : float;  (** vs the Reno cross traffic *)
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
