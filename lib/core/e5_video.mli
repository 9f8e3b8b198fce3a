(** E5 — ABR video bounds its own demand (§2.2).

    An ABR video stream shares an access link with (optionally) a bulk
    flow, across access capacities spanning below and above the ladder
    top. With ample capacity the stream pins itself at the top rung and
    leaves the rest idle — no contention despite a "greedy" transport
    underneath; under tighter capacity the ABR steps down rather than
    fight, and the bulk flow absorbs the residual. *)

type row = {
  capacity_mbps : float;
  with_bulk : bool;
  video_bitrate_mbps : float;  (** mean chosen ladder rate *)
  video_goodput_mbps : float;
  rebuffer_s : float;
  bulk_goodput_mbps : float;
  utilization : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
