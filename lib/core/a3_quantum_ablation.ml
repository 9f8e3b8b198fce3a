module U = Ccsim_util

type row = {
  quantum_packets : float;
  jain : float;
  reno_mbps : float;
  bbr_mbps : float;
  reno_srtt_ms : float;
  cbr_jitter_ms : float;
  utilization : float;
}

let rate_bps = U.Units.mbps 48.0
let pkt = U.Units.mss + U.Units.header_bytes

let warmup_s = 10.0

let run ?(duration = 40.0) ?(seed = 42) () =
  let bdp = U.Units.bdp_bytes ~rate_bps ~rtt_s:0.05 in
  List.map
    (fun quantum_packets ->
      let quantum_bytes = max 64 (int_of_float (quantum_packets *. float_of_int pkt)) in
      let scenario =
        Scenario.make
          ~name:(Printf.sprintf "a3/q=%g" quantum_packets)
          ~rate_bps ~delay_s:0.025
          ~qdisc:
            (Scenario.Drr { quantum_bytes = Some quantum_bytes; limit_bytes = Some (4 * bdp) })
          ~duration ~warmup:warmup_s ~seed
          [
            Scenario.flow "bbr" ~cca:Scenario.Bbr ~app:Scenario.Bulk;
            Scenario.flow "reno" ~cca:Scenario.Reno ~app:Scenario.Bulk;
            Scenario.flow "cbr" ~app:(Scenario.Cbr_udp { rate_bps = U.Units.mbps 1.0 });
          ]
      in
      let result = Scenario.run scenario in
      let reno = Results.find result "reno" and bbr = Results.find result "bbr" in
      let cbr = Results.find result "cbr" in
      {
        quantum_packets;
        jain = U.Fairness.jain_index [| reno.goodput_bps; bbr.goodput_bps |];
        reno_mbps = U.Units.to_mbps reno.goodput_bps;
        bbr_mbps = U.Units.to_mbps bbr.goodput_bps;
        reno_srtt_ms = 1e3 *. reno.mean_srtt_s;
        cbr_jitter_ms = 1e3 *. cbr.jitter_s;
        utilization = result.utilization;
      })
    [ 0.25; 1.0; 4.0; 16.0 ]

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b "A3: DRR quantum vs isolation quality (BBR vs Reno)";
  let table =
    U.Table.create
      ~columns:
        [
          ("quantum (pkts)", U.Table.Right);
          ("jain", U.Table.Right);
          ("reno Mbit/s", U.Table.Right);
          ("bbr Mbit/s", U.Table.Right);
          ("reno srtt ms", U.Table.Right);
          ("cbr jitter ms", U.Table.Right);
          ("util", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          U.Table.cell_f r.quantum_packets;
          U.Table.cell_f ~decimals:3 r.jain;
          U.Table.cell_f r.reno_mbps;
          U.Table.cell_f r.bbr_mbps;
          U.Table.cell_f r.reno_srtt_ms;
          U.Table.cell_f ~decimals:3 r.cbr_jitter_ms;
          U.Table.cell_f r.utilization;
        ])
    rows;
  Report.table b table
