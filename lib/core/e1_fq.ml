module U = Ccsim_util

type row = {
  pair : string;
  qdisc : string;
  goodput_a_mbps : float;
  goodput_b_mbps : float;
  jain : float;
  utilization : float;
}

let pairs =
  [
    ("reno/reno", Scenario.Reno, Scenario.Reno);
    ("cubic/reno", Scenario.Cubic, Scenario.Reno);
    ("bbr/reno", Scenario.Bbr, Scenario.Reno);
    ("bbr/cubic", Scenario.Bbr, Scenario.Cubic);
    ("vegas/reno", Scenario.Vegas, Scenario.Reno);
    ("aimd(4,.7)/reno", Scenario.Aimd { a = 4.0; b = 0.7 }, Scenario.Reno);
  ]

(* The DRR buffer gets two BDPs so rate-based probing (BBR) has room in
   its own queue; with the stock shallow buffer BBR declines its fair
   share rather than being denied it. *)
let qdiscs =
  let bdp = Ccsim_util.Units.bdp_bytes ~rate_bps:(U.Units.mbps 48.0) ~rtt_s:0.05 in
  [
    ("fifo", Scenario.Fifo { limit_bytes = None });
    ("drr-fq", Scenario.Drr { quantum_bytes = None; limit_bytes = Some (4 * bdp) });
  ]

let warmup_s = 10.0

let run ?(duration = 60.0) ?(seed = 42) () =
  List.concat_map
    (fun (pair, cca_a, cca_b) ->
      List.map
        (fun (qdisc_name, qdisc) ->
          let scenario =
            Scenario.make
              ~name:(Printf.sprintf "e1/%s/%s" pair qdisc_name)
              ~rate_bps:(U.Units.mbps 48.0) ~delay_s:0.025 ~qdisc ~duration ~warmup:warmup_s ~seed
              [
                Scenario.flow "a" ~cca:cca_a ~app:Scenario.Bulk;
                Scenario.flow "b" ~cca:cca_b ~app:Scenario.Bulk;
              ]
          in
          let result = Scenario.run scenario in
          let a = Results.find result "a" and b = Results.find result "b" in
          {
            pair;
            qdisc = qdisc_name;
            goodput_a_mbps = U.Units.to_mbps a.goodput_bps;
            goodput_b_mbps = U.Units.to_mbps b.goodput_bps;
            jain = result.jain_index;
            utilization = result.utilization;
          })
        qdiscs)
    pairs

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b "E1: CCA pairings under FIFO vs DRR fair queueing (48 Mbit/s, 50 ms RTT)";
  let table =
    U.Table.create
      ~columns:
        [
          ("pair", U.Table.Left);
          ("qdisc", U.Table.Left);
          ("A Mbit/s", U.Table.Right);
          ("B Mbit/s", U.Table.Right);
          ("jain", U.Table.Right);
          ("util", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          r.pair;
          r.qdisc;
          U.Table.cell_f r.goodput_a_mbps;
          U.Table.cell_f r.goodput_b_mbps;
          U.Table.cell_f ~decimals:3 r.jain;
          U.Table.cell_f r.utilization;
        ])
    rows;
  Report.table b table
