(* A realistic home access link: ABR video + a software update (bulk) +
   web browsing (Poisson short flows), under FIFO and under fair
   queueing, with and without an ISP shaper.

   Run with: dune exec examples/access_link.exe

   This is the scenario the paper's §2.2 reasons about: does the bulk
   download actually contend with the video, or does ABR demand-bounding
   plus isolation make CCA dynamics irrelevant? *)

module Scenario = Ccsim_core.Scenario
module Results = Ccsim_core.Results
module U = Ccsim_util

let describe label result =
  let video = Results.find result "video" in
  let bulk = Results.find result "update" in
  let video_stats = Option.get video.Results.video in
  Printf.printf "%-28s video %5.2f Mbit/s (rebuffer %4.1fs)  update %5.2f Mbit/s  util %.2f\n"
    label
    (U.Units.to_mbps video.goodput_bps)
    video_stats.rebuffer_s
    (U.Units.to_mbps bulk.goodput_bps)
    result.Results.utilization

let run ~label ~qdisc ~ingress =
  let scenario =
    Scenario.make ~name:label ~rate_bps:(U.Units.mbps 40.0) ~delay_s:0.015 ~qdisc
      ~duration:60.0 ~warmup:15.0
      ~short_flows:{ Scenario.arrival_rate = 5.0; mean_size_bytes = 50_000.0; sf_stop = None }
      [
        Scenario.flow "video" ~cca:Scenario.Cubic ~app:Scenario.Video;
        Scenario.flow "update" ~cca:Scenario.Cubic ~app:Scenario.Bulk ~start:10.0 ~ingress;
      ]
  in
  describe label (Scenario.run scenario)

let () =
  print_endline "Home access link (40 Mbit/s): ABR video vs software update vs short flows";
  let fifo = Scenario.Fifo { limit_bytes = None } in
  let drr = Scenario.Drr { quantum_bytes = None; limit_bytes = None } in
  let shaper =
    Ccsim_net.Topology.Shape
      {
        rate_bps = U.Units.mbps 20.0;
        burst_bytes = 50 * (U.Units.mss + U.Units.header_bytes);
      }
  in
  run ~label:"fifo, unshaped" ~qdisc:fifo ~ingress:Ccsim_net.Topology.No_ingress;
  run ~label:"fifo, update shaped to 20M" ~qdisc:fifo ~ingress:shaper;
  run ~label:"drr fair queueing, unshaped" ~qdisc:drr ~ingress:Ccsim_net.Topology.No_ingress
