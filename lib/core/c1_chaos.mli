(** C1: elasticity-verdict stability under fault injection.

    A Nimbus probe shares the canonical dumbbell with elastic
    (CUBIC + BBR bulk) or inelastic (CBR UDP) cross traffic while a
    canonical {!Ccsim_faults} plan of increasing intensity (none, mild,
    moderate, severe) batters the bottleneck with outages, burst loss,
    corruption, delay spikes and qdisc resets. The faults are
    non-congestive by construction, so the paper's contention verdict
    (p90 elasticity over the post-warmup window, threshold 0.5) should
    match the fault-free verdict of the same case — the [stable]
    column. The verdict is computed over {e fault-quiet} samples: while
    a plan window (plus a 2 s recovery guard) is live there is no
    cross-traffic response to measure, so those samples are masked via
    {!Ccsim_faults.Plan.windows}. Fault plans scale with the run
    duration so short CI runs still fire every event, but the verdict
    needs roughly 35 s of post-warmup samples to be stable — use the
    default duration for meaningful [stable] columns. *)

type intensity = None_ | Mild | Moderate | Severe

val intensities : intensity list [@@ccsim.test_only "tests check c1's canonical fault plans"]
val plan_string : duration:float -> intensity -> string option
[@@ccsim.test_only "tests check c1's canonical fault plans"]
(** The canonical plan armed at the given intensity ([None] for
    [None_]), with event times scaled to [duration]. *)

type row = {
  case : string;
  intensity : string;
  expected_elastic : bool;
  p90_elasticity : float;
  classified_elastic : bool;
  stable : bool;  (** verdict equals the fault-free verdict for this case *)
  probe_goodput_mbps : float;
  cross_goodput_mbps : float;
  fired : int;
  wire_lost : int;
  wire_corrupted : int;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
