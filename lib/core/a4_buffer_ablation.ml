module U = Ccsim_util

type row = {
  buffer_bdp : float;
  bbr_mbps : float;
  reno_mbps : float;
  bbr_share : float;
  loss_rate : float;
}

let rate_bps = U.Units.mbps 48.0
let rtt_s = 0.05

let warmup_s = 15.0

let run ?(duration = 60.0) ?(seed = 42) () =
  let bdp = U.Units.bdp_bytes ~rate_bps ~rtt_s in
  List.map
    (fun buffer_bdp ->
      let limit = max (4 * (U.Units.mss + U.Units.header_bytes))
          (int_of_float (buffer_bdp *. float_of_int bdp))
      in
      let scenario =
        Scenario.make
          ~name:(Printf.sprintf "a4/buf=%gbdp" buffer_bdp)
          ~rate_bps ~delay_s:(rtt_s /. 2.0)
          ~qdisc:(Scenario.Fifo { limit_bytes = Some limit })
          ~duration ~warmup:warmup_s ~seed
          [
            Scenario.flow "bbr" ~cca:Scenario.Bbr ~app:Scenario.Bulk;
            Scenario.flow "reno" ~cca:Scenario.Reno ~app:Scenario.Bulk;
          ]
      in
      let result = Scenario.run scenario in
      let bbr = Results.find result "bbr" and reno = Results.find result "reno" in
      let total = bbr.goodput_bps +. reno.goodput_bps in
      {
        buffer_bdp;
        bbr_mbps = U.Units.to_mbps bbr.goodput_bps;
        reno_mbps = U.Units.to_mbps reno.goodput_bps;
        bbr_share = (if total > 0.0 then bbr.goodput_bps /. total else 0.0);
        loss_rate = result.bottleneck_loss_rate;
      })
    [ 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 ]

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b "A4: buffer depth vs BBR/Reno share on a FIFO bottleneck (Ware et al. shape)";
  let table =
    U.Table.create
      ~columns:
        [
          ("buffer (BDP)", U.Table.Right);
          ("bbr Mbit/s", U.Table.Right);
          ("reno Mbit/s", U.Table.Right);
          ("bbr share", U.Table.Right);
          ("loss rate", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          U.Table.cell_f r.buffer_bdp;
          U.Table.cell_f r.bbr_mbps;
          U.Table.cell_f r.reno_mbps;
          U.Table.cell_pct r.bbr_share;
          U.Table.cell_pct r.loss_rate;
        ])
    rows;
  Report.table b table
