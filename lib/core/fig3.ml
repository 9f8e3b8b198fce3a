module U = Ccsim_util

type row = {
  traffic : string;
  expected_elastic : bool;
  mean_elasticity : float;
  p90_elasticity : float;
  classified_elastic : bool;
  probe_goodput_mbps : float;
  cross_goodput_mbps : float;
}

let rate_bps = U.Units.mbps 48.0
let rtt_s = 0.1

let probe_spec =
  Scenario.flow "probe"
    ~cca:(Scenario.Nimbus { capacity_bps = rate_bps })
    ~app:Scenario.Bulk

let cross_cases ~seed :
    (string * bool * Scenario.flow_spec list * Scenario.short_flows_spec option) list =
  ignore seed;
  [
    ("reno bulk", true, [ Scenario.flow "cross" ~cca:Scenario.Reno ~app:Scenario.Bulk ], None);
    ("bbr bulk", true, [ Scenario.flow "cross" ~cca:Scenario.Bbr ~app:Scenario.Bulk ], None);
    ( "video (ABR)",
      false,
      [ Scenario.flow "cross" ~cca:Scenario.Cubic ~app:Scenario.Video ],
      None );
    ( "poisson short flows",
      false,
      [],
      Some { Scenario.arrival_rate = 25.0; mean_size_bytes = 40_000.0; sf_stop = None } );
    ( "CBR UDP",
      false,
      [ Scenario.flow "cross" ~app:(Scenario.Cbr_udp { rate_bps = U.Units.mbps 12.0 }) ],
      None );
  ]

let warmup_s = 10.0

let run ?(duration = 45.0) ?(seed = 42) () =
  List.map
    (fun (traffic, expected_elastic, cross_flows, short_flows) ->
      let bdp = U.Units.bdp_bytes ~rate_bps ~rtt_s in
      let scenario =
        Scenario.make ~name:("fig3/" ^ traffic) ~rate_bps ~delay_s:(rtt_s /. 2.0) ~duration
          ~warmup:warmup_s ~seed ?short_flows
          ~qdisc:(Scenario.Fifo { limit_bytes = Some (2 * bdp) })
          (probe_spec :: cross_flows)
      in
      let result = Scenario.run scenario in
      let probe = Results.find result "probe" in
      let handle =
        match probe.nimbus with
        | Some h -> h
        | None -> invalid_arg "Fig3: probe flow has no nimbus handle"
      in
      (* Steady-state elasticity: skip the warmup (filter ramp + slow start). *)
      let steady =
        U.Timeseries.between handle.elasticity ~lo:scenario.warmup ~hi:duration
      in
      let v = Ccsim_measure.Elasticity.verdict (U.Timeseries.values steady) in
      let cross_goodput =
        List.fold_left
          (fun acc (f : Results.flow_result) ->
            if String.equal f.label "probe" then acc else acc +. f.goodput_bps)
          0.0 result.flows
      in
      {
        traffic;
        expected_elastic;
        mean_elasticity = v.mean;
        p90_elasticity = v.p90;
        classified_elastic = v.elastic;
        probe_goodput_mbps = U.Units.to_mbps probe.goodput_bps;
        cross_goodput_mbps = U.Units.to_mbps cross_goodput;
      })
    (cross_cases ~seed)

let render rows =
  Report.with_buf @@ fun b ->
  let table =
    U.Table.create
      ~columns:
        [
          ("cross traffic", U.Table.Left);
          ("elasticity (mean)", U.Table.Right);
          ("p90", U.Table.Right);
          ("classified", U.Table.Left);
          ("expected", U.Table.Left);
          ("probe Mbit/s", U.Table.Right);
          ("cross Mbit/s", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          r.traffic;
          U.Table.cell_f r.mean_elasticity;
          U.Table.cell_f r.p90_elasticity;
          (if r.classified_elastic then "elastic" else "inelastic");
          (if r.expected_elastic then "elastic" else "inelastic");
          U.Table.cell_f r.probe_goodput_mbps;
          U.Table.cell_f r.cross_goodput_mbps;
        ])
    rows;
  Report.line b "Figure 3: elasticity of a Nimbus probe vs five cross-traffic types";
  Printf.bprintf b "(48 Mbit/s bottleneck, 100 ms RTT; elasticity > 0.5 => contending)\n";
  Report.table b table
