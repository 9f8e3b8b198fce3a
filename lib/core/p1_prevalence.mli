(** P1: contention prevalence across a user population (fluid/hybrid).

    Every user is a fluid access link with a service-plan capacity
    carrying 1–3 flows with heavy-tailed demand caps, exponential
    on/off activity, and a content-provider CCA mix; the experiment
    reports the fraction of users whose link ever spent meaningful time
    contended — the paper's prevalence question at population scale.
    The hybrid backend adds one packet-level "household" (CUBIC + Reno
    bulk foreground) coupled to a fluid background aggregate. *)

type backend = Fluid | Hybrid

val backend_of_string : string -> backend option

type tier_row = {
  tier : string;
  users : int;
  flows : int;
  contended : int;
  util : float;
}

type hybrid_stats = {
  fg_cubic_mbps : float;
  fg_reno_mbps : float;
  bg_served_mbps : float;
  coupled_link_mbps : float;
  coupled_contended_s : float;
}

type result = {
  backend : backend;
  n : int;
  seed : int;
  tier_rows : tier_row list;
  prevalence : float;
  mean_contended_frac : float;
  drop_frac : float;
  hybrid : hybrid_stats option;
}

val run : ?n:int -> ?seed:int -> ?backend:backend -> unit -> result
(** [n] is the population size (default 2000). *)

val render : result -> string
