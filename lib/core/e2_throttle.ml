module U = Ccsim_util

type row = {
  cca : string;
  management : string;
  goodput_mbps : float;
  retransmits : int;
  mean_srtt_ms : float;
}

let plan_rate_bps = U.Units.mbps 20.0

let warmup_s = 5.0

let run ?(duration = 30.0) ?(seed = 42) () =
  let burst = 50 * (U.Units.mss + U.Units.header_bytes) in
  let managements =
    [
      ("none", Ccsim_net.Topology.No_ingress);
      ("shaper", Ccsim_net.Topology.Shape { rate_bps = plan_rate_bps; burst_bytes = burst });
      ("policer", Ccsim_net.Topology.Police { rate_bps = plan_rate_bps; burst_bytes = burst });
    ]
  in
  let ccas = [ ("reno", Scenario.Reno); ("cubic", Scenario.Cubic); ("bbr", Scenario.Bbr) ] in
  List.concat_map
    (fun (cca_name, cca) ->
      List.map
        (fun (mgmt_name, ingress) ->
          let scenario =
            Scenario.make
              ~name:(Printf.sprintf "e2/%s/%s" cca_name mgmt_name)
              ~rate_bps:(U.Units.mbps 100.0) ~delay_s:0.02 ~duration ~warmup:warmup_s ~seed
              [ Scenario.flow "flow" ~cca ~app:Scenario.Bulk ~ingress ]
          in
          let result = Scenario.run scenario in
          let f = Results.find result "flow" in
          {
            cca = cca_name;
            management = mgmt_name;
            goodput_mbps = U.Units.to_mbps f.goodput_bps;
            retransmits = f.retransmits;
            mean_srtt_ms = 1e3 *. f.mean_srtt_s;
          })
        managements)
    ccas

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b
    "E2: token-bucket shaping/policing to a 20 Mbit/s plan on a 100 Mbit/s path";
  let table =
    U.Table.create
      ~columns:
        [
          ("cca", U.Table.Left);
          ("management", U.Table.Left);
          ("goodput Mbit/s", U.Table.Right);
          ("retransmits", U.Table.Right);
          ("srtt ms", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          r.cca;
          r.management;
          U.Table.cell_f r.goodput_mbps;
          string_of_int r.retransmits;
          U.Table.cell_f r.mean_srtt_ms;
        ])
    rows;
  Report.table b table
