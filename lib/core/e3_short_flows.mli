(** E3 — most flows fit in the initial window (§2.2).

    A Poisson short-flow workload with heavy-tailed (bounded-Pareto)
    sizes runs alone on an access link. For each mean flow size we
    report what fraction of flows complete without ever leaving the
    ten-segment initial window — flows whose bandwidth allocation no
    congestion-avoidance dynamics could have influenced — plus the flow
    completion time distribution. *)

type row = {
  mean_size_bytes : float;
  spawned : int;
  completed : int;
  fraction_in_iw : float;
  fct_p50_s : float;
  fct_p99_s : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
