(** Adaptive-bitrate (ABR) video streaming client/server.

    Downloads fixed-duration chunks over a TCP connection, choosing each
    chunk's bitrate from a ladder with a buffer-aware, throughput-capped
    policy (in the spirit of buffer-based ABR). Playback drains the
    buffer in real time; rebuffering pauses it.

    This is the paper's central example of *demand-bounded* traffic: even
    when the network could deliver more, the stream never requests more
    than its top ladder rung, and under congestion the ABR steps its
    demand down instead of fighting — so "adaptive bitrate algorithms
    would reduce video streams' throughput demand" (§2.2). *)

type stats = {
  chunks_downloaded : int;
  mean_bitrate_bps : float;  (** mean of the chosen ladder rates *)
  rebuffer_s : float;  (** total stall time after startup *)
}

type t

val start :
  Ccsim_engine.Sim.t ->
  sender:Ccsim_tcp.Sender.t ->
  ?max_buffer_s:(float [@ccsim.test_only "tests cap the video buffer with it"]) ->
  unit ->
  t
(** Default: a 30 s max buffer. Fixed: a ladder of 1, 2.5, 5, 8, 16
    and 25 Mbit/s (topping out at the cloud-gaming-like rates §2.2
    cites, 20–30 Mbit/s), 2 s chunks, a 5 s panic threshold (below it the
    lowest rung), and a safety factor of 0.8 (the largest rung at most
    0.8 x estimated throughput). The client polls download completion
    at 10 ms granularity and streams until the end of the run. *)

val stats : t -> stats
