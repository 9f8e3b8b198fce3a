(** Poisson-arrival short-flow workload ("mice").

    Spawns TCP flows with exponential inter-arrival times and
    heavy-tailed (bounded-Pareto) sizes — the web-like traffic mix from
    which §2.2 argues that most flows fit in the initial window and
    never engage congestion avoidance. Each flow gets a fresh
    connection; statistics record size, duration, and whether it ever
    left the initial window. *)

type flow_record = {
  started : float;
  mutable finished : float option;
  mutable retransmits : int;
  mutable fit_in_initial_window : bool;
}

type t

val start :
  Ccsim_engine.Sim.t ->
  Ccsim_net.Topology.t ->
  rng:Ccsim_util.Rng.t ->
  arrival_rate:float ->
  ?mean_size_bytes:float ->
  ?stop:float ->
  unit ->
  t
(** [arrival_rate] in flows/second, until [stop] (default: never).
    Sizes are bounded-Pareto with shape 1.2 and a 10 MB cap, scaled
    toward [mean_size_bytes] (default 30 kB). Every flow runs NewReno.
    Flow ids count up from 1000, so keep the topology's other flows
    below that. *)

val flows : t -> flow_record list [@@ccsim.test_only "tests check each short flow's record"]
(** All spawned flows, oldest first. *)

val completed : t -> flow_record list
val spawn_count : t -> int

val fraction_within_initial_window : t -> float
(** Fraction of completed flows whose size fit in IW10 (so their CCA
    never mattered). *)
