(* Using Nimbus as a measurement instrument (the paper's §3.2 proposal):
   point a pulsing probe at a path and ask "is anything on this path
   actively competing with me for bandwidth?"

   Run with: dune exec examples/elasticity_probe.exe

   The example dissects one case from Figure 3 — a Reno bulk flow as
   cross traffic — and prints the probe's elasticity time series, the
   kind of evidence the paper proposes collecting Internet-wide. *)

module Sim = Ccsim_engine.Sim
module U = Ccsim_util

let () =
  let rate_bps = U.Units.mbps 48.0 in
  let sim = Sim.create () in
  let bdp = U.Units.bdp_bytes ~rate_bps ~rtt_s:0.1 in
  let topo =
    Ccsim_net.Topology.dumbbell sim ~rate_bps ~delay_s:0.05
      ~qdisc:(Ccsim_net.Fifo.create ~limit_bytes:(2 * bdp) ())
      ()
  in
  (* The probe: Nimbus with mode switching disabled, capacity known. *)
  let probe_cca, handle =
    Ccsim_cca.Nimbus.create sim ~mode_switching:false ~known_capacity_bps:rate_bps ()
  in
  let probe = Ccsim_tcp.Connection.establish topo ~flow:0 ~cca:probe_cca () in
  Ccsim_tcp.Sender.set_unlimited probe.sender;
  (* Cross traffic: a Reno bulk flow that joins at t=15s and leaves at t=35s. *)
  let cross = Ccsim_tcp.Connection.establish topo ~flow:1 ~cca:(Ccsim_cca.Reno.create ()) () in
  ignore (Sim.schedule_at sim ~time:15.0 (fun () -> Ccsim_tcp.Sender.set_unlimited cross.sender));
  ignore (Sim.schedule_at sim ~time:35.0 (fun () -> Ccsim_tcp.Sender.close cross.sender));
  Sim.run ~until:50.0 sim;
  print_endline "Elasticity time series (Reno cross traffic active from t=15s to t=35s):";
  print_endline "  time   elasticity  verdict";
  List.iter
    (fun (time, e) ->
      if time > 6.0 then
        Printf.printf "  %5.1f  %10.2f  %s\n" time e
          (if (Ccsim_measure.Elasticity.verdict [| e |]).elastic then "contending" else "-"))
    (U.Timeseries.to_list handle.elasticity)
