(** NDT-style speedtest flow: a bulk transfer of fixed duration with
    periodic TCPInfo snapshots — the measurement primitive behind the
    M-Lab dataset the paper analyses in §3.1, reproduced here so the
    analysis pipeline can also be run against *simulated* ground truth. *)

type result = {
  snapshots : Ccsim_tcp.Tcp_info.t array;  (** one per [interval] *)
  mean_throughput_bps : float [@ccsim.test_only "tests check the speed test's mean"];
}

type t

val start :
  Ccsim_engine.Sim.t ->
  sender:Ccsim_tcp.Sender.t ->
  ?duration:float ->
  ?interval:(float [@ccsim.test_only "tests set the speed test's sampling with it"]) ->
  ?on_finish:((result -> unit) [@ccsim.test_only "tests collect the result with it"]) ->
  unit ->
  t
(** Defaults: 10 s transfer (an NDT test's length), 100 ms snapshot
    interval. The sender is closed when the duration elapses. *)

val result : t -> result option
(** Available once the test has finished. *)
