(** X3 (extension) — per-flow vs per-user isolation, validated against
    the Recursive Congestion Shares model (§2.1, §5.3).

    §2.1 notes that "most isolation mechanisms operate on a per-user,
    not per-flow, basis". Two users share an access aggregate: user A
    runs four bulk flows, user B runs one. Per-flow fair queueing hands
    A 4/5 of the link (flow-splitting pays); weighted per-user fair
    queueing (each user's flows weighted 1/n_user) restores the 50/50
    economic split. Both enforced outcomes are compared against the
    pure {!Ccsim_measure.Rcs} share-tree prediction. *)

type row = {
  scheme : string;  (** per-flow FQ / per-user FQ *)
  flow : string;
  simulated_mbps : float;
  model_mbps : float;  (** RCS prediction for the matching tree *)
  relative_error : float;
}

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
