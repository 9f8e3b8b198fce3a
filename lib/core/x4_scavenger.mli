(** X4 (extension) — scavenger transport removes the residual
    access-link contention case (§2.3).

    §2.3 concedes that persistently backlogged transfers (software
    updates) on access links are the one place CCA contention can still
    occur, and answers that endhost shaping/isolation is cheap. A third
    answer already deployed in practice: run the update over a
    scavenger CCA (LEDBAT, RFC 6817). An ABR video stream shares a home
    access link with a software update running over Cubic vs over
    LEDBAT: the scavenger keeps the update moving while the video (and
    its latency) stays effectively uncontended. *)

type row = {
  update_cca : string;
  video_bitrate_mbps : float;
  video_rebuffer_s : float;
  update_mbps : float;
  mean_srtt_ms : float;  (** the video flow's smoothed RTT *)
  utilization : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
