(** A2 (ablation) — change-point penalty vs Figure 2 detector accuracy.

    The §3.1 pipeline's verdicts hinge on the penalized-segmentation
    penalty: too small over-segments noise into spurious "contention",
    too large misses genuine competitor arrivals. This sweep scales
    PELT's BIC-style default penalty and scores the detector against
    the synthetic population's ground truth. *)

type row = {
  penalty_scale : float;  (** x the BIC default *)
  precision : float;
  recall : float;
  candidates_flagged : int;
  mean_changes_per_candidate : float;
}

val run : ?n:int -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
