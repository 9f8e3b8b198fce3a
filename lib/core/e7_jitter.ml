module U = Ccsim_util

type row = {
  qdisc : string;
  burst_packets : int;
  cbr_jitter_ms : float;
  cbr_goodput_mbps : float;
  cross_goodput_mbps : float;
}

let pkt = U.Units.mss + U.Units.header_bytes

let warmup_s = 5.0

let run ?(duration = 30.0) ?(seed = 42) () =
  let capacity = U.Units.mbps 20.0 in
  let qdiscs =
    [
      ("fifo", Scenario.Fifo { limit_bytes = None });
      ("drr-fq", Scenario.Drr { quantum_bytes = None; limit_bytes = None });
    ]
  in
  let bursts = [ None; Some 10; Some 100; Some 400 ] in
  List.concat_map
    (fun (qdisc_name, qdisc) ->
      List.map
        (fun burst ->
          let flows =
            Scenario.flow "cbr" ~app:(Scenario.Cbr_udp { rate_bps = U.Units.mbps 2.0 })
            ::
            (match burst with
            | None -> []
            | Some b ->
                [
                  Scenario.flow "bursty" ~cca:Scenario.Cubic
                    ~app:
                      (Scenario.Onoff
                         { rate_bps = U.Units.mbps 40.0; mean_on = 0.2; mean_off = 0.3 })
                    ~ingress:
                      (Ccsim_net.Topology.Shape
                         { rate_bps = U.Units.mbps 10.0; burst_bytes = b * pkt });
                ])
          in
          let scenario =
            Scenario.make
              ~name:(Printf.sprintf "e7/%s/burst=%d" qdisc_name
                       (match burst with None -> 0 | Some b -> b))
              ~rate_bps:capacity ~delay_s:0.01 ~qdisc ~duration ~warmup:warmup_s ~seed flows
          in
          let result = Scenario.run scenario in
          let cbr = Results.find result "cbr" in
          {
            qdisc = qdisc_name;
            burst_packets = (match burst with None -> 0 | Some b -> b);
            cbr_jitter_ms = 1e3 *. cbr.jitter_s;
            cbr_goodput_mbps = U.Units.to_mbps cbr.goodput_bps;
            cross_goodput_mbps =
              (match burst with
              | None -> 0.0
              | Some _ -> U.Units.to_mbps (Results.find result "bursty").goodput_bps);
          })
        bursts)
    qdiscs

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b
    "E7: token-bucket bursts inflate a CBR flow's jitter; FQ caps but cannot remove it (20 Mbit/s)";
  let table =
    U.Table.create
      ~columns:
        [
          ("qdisc", U.Table.Left);
          ("burst pkts", U.Table.Right);
          ("CBR jitter ms", U.Table.Right);
          ("CBR Mbit/s", U.Table.Right);
          ("cross Mbit/s", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          r.qdisc;
          string_of_int r.burst_packets;
          U.Table.cell_f ~decimals:3 r.cbr_jitter_ms;
          U.Table.cell_f r.cbr_goodput_mbps;
          U.Table.cell_f r.cross_goodput_mbps;
        ])
    rows;
  Report.table b table
