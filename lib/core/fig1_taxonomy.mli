(** Figure 1 backing experiment — when do CCA dynamics determine the
    allocation?

    Figure 1 in the paper is a conceptual diagram; this experiment puts
    numbers behind it by sweeping the three prerequisites for
    contention (§2): (i) flows share a path segment, (ii) that segment
    is a bottleneck, (iii) they use the same queue. A Cubic flow and a
    Reno flow — a representative aggressive/conservative pairing — run
    under each condition; the allocation ratio tells us whether CCA
    aggressiveness mattered. *)

type row = {
  condition : string;
  aggressive_mbps : float;
  reno_mbps : float;
  ratio : float;  (** aggressive / reno *)
  cca_determined : bool;  (** ratio outside [2/3, 3/2] *)
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
