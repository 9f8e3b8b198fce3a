module Sim = Ccsim_engine.Sim
module U = Ccsim_util

type row = {
  amplitude : float;
  elastic_p90 : float;
  inelastic_p90 : float;
  separation : float;
  both_classified_correctly : bool;
  probe_goodput_mbps : float;
}

let rate_bps = U.Units.mbps 48.0
let rtt_s = 0.1

(* Elasticity samples before this still carry the probe's start-up. *)
let warmup_s = 10.0

(* This ablation drives Nimbus below the Scenario API so the pulse
   amplitude can vary. *)
let probe_run ~amplitude ~duration ~cross =
  let sim = Sim.create () in
  let bdp = U.Units.bdp_bytes ~rate_bps ~rtt_s in
  let topo =
    Ccsim_net.Topology.dumbbell sim ~rate_bps ~delay_s:(rtt_s /. 2.0)
      ~qdisc:(Ccsim_net.Fifo.create ~limit_bytes:(2 * bdp) ())
      ()
  in
  let probe_cca, handle =
    Ccsim_cca.Nimbus.create sim ~mode_switching:false ~known_capacity_bps:rate_bps
      ~pulse_amplitude:amplitude ()
  in
  let probe = Ccsim_tcp.Connection.establish topo ~flow:0 ~cca:probe_cca () in
  Ccsim_tcp.Sender.set_unlimited probe.sender;
  (match cross with
  | `Reno_bulk ->
      let conn = Ccsim_tcp.Connection.establish topo ~flow:1 ~cca:(Ccsim_cca.Reno.create ()) () in
      Ccsim_tcp.Sender.set_unlimited conn.sender
  | `Cbr_udp ->
      let source = Ccsim_tcp.Udp.Source.create sim ~flow:1 ~path:(topo.fwd_entry ~flow:1) () in
      let sink = Ccsim_tcp.Udp.Sink.create sim () in
      Ccsim_net.Dispatch.register topo.fwd_dispatch ~flow:1 (Ccsim_tcp.Udp.Sink.handle sink);
      ignore (Ccsim_app.Cbr.over_udp sim ~source ~rate_bps:(U.Units.mbps 12.0) ()));
  Sim.run ~until:duration sim;
  let steady = U.Timeseries.between handle.elasticity ~lo:warmup_s ~hi:duration in
  let goodput =
    float_of_int (Ccsim_tcp.Receiver.bytes_received probe.receiver) *. 8.0 /. duration
  in
  (Ccsim_measure.Elasticity.verdict (U.Timeseries.values steady), goodput)


let run ?(duration = 45.0) ?seed () =
  ignore seed;
  List.map
    (fun amplitude ->
      let elastic, probe_goodput = probe_run ~amplitude ~duration ~cross:`Reno_bulk in
      let inelastic, _ = probe_run ~amplitude ~duration ~cross:`Cbr_udp in
      {
        amplitude;
        elastic_p90 = elastic.p90;
        inelastic_p90 = inelastic.p90;
        separation = elastic.p90 -. inelastic.p90;
        both_classified_correctly = elastic.elastic && not inelastic.elastic;
        probe_goodput_mbps = U.Units.to_mbps probe_goodput;
      })
    [ 0.0625; 0.125; 0.25; 0.375 ]

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b "A1: Nimbus pulse amplitude vs elastic/inelastic separation";
  let table =
    U.Table.create
      ~columns:
        [
          ("amplitude", U.Table.Right);
          ("elastic p90", U.Table.Right);
          ("inelastic p90", U.Table.Right);
          ("separation", U.Table.Right);
          ("classified", U.Table.Left);
          ("probe Mbit/s", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          U.Table.cell_f r.amplitude;
          U.Table.cell_f r.elastic_p90;
          U.Table.cell_f r.inelastic_p90;
          U.Table.cell_f r.separation;
          (if r.both_classified_correctly then "both correct" else "confused");
          U.Table.cell_f r.probe_goodput_mbps;
        ])
    rows;
  Report.table b table
