module U = Ccsim_util

type row = {
  n_flows : int;
  qdisc : string;
  jain_long : float;
  jain_short_p10 : float;
  starved_windows : float;
  min_flow_mbps : float;
  max_flow_mbps : float;
}

(* 400 kbit/s at 80 ms RTT: BDP = 4 kB, under 3 full packets; with N
   flows the per-flow share is a fraction of a packet per RTT. *)
let rate_bps = U.Units.kbps 400.0
let rtt_s = 0.08

let window_s = 2.0

let warmup_s = 20.0

let run ?(duration = 120.0) ?(seed = 42) () =
  let qdiscs =
    [
      ("fifo", Scenario.Fifo { limit_bytes = Some (8 * (U.Units.mss + U.Units.header_bytes)) });
      ( "drr-fq",
        Scenario.Drr
          { quantum_bytes = Some 256; limit_bytes = Some (8 * (U.Units.mss + U.Units.header_bytes)) } );
    ]
  in
  List.concat_map
    (fun n_flows ->
      List.map
        (fun (qdisc_name, qdisc) ->
          let flows =
            List.init n_flows (fun i ->
                Scenario.flow (Printf.sprintf "f%d" i) ~cca:Scenario.Reno ~app:Scenario.Bulk)
          in
          let scenario =
            Scenario.make
              ~name:(Printf.sprintf "e6/n=%d/%s" n_flows qdisc_name)
              ~rate_bps ~delay_s:(rtt_s /. 2.0) ~qdisc ~duration ~warmup:warmup_s ~seed
              ~monitor_interval:0.5 flows
          in
          let result = Scenario.run scenario in
          let goodputs = Results.goodputs result in
          let fair_share = rate_bps /. float_of_int n_flows in
          (* Windowed throughput per flow over the measurement period. *)
          let windows = int_of_float ((duration -. warmup_s) /. window_s) in
          let per_window =
            List.map
              (fun (f : Results.flow_result) ->
                Array.init windows (fun w ->
                    let lo = warmup_s +. (float_of_int w *. window_s) in
                    let hi = lo +. window_s in
                    let ts = U.Timeseries.between f.throughput ~lo ~hi in
                    if U.Timeseries.is_empty ts then 0.0 else U.Timeseries.mean_value ts))
              result.flows
          in
          let jains =
            Array.init windows (fun w ->
                U.Fairness.jain_index
                  (Array.of_list (List.map (fun a -> a.(w)) per_window)))
          in
          let starved =
            List.fold_left
              (fun acc throughput ->
                acc + U.Fairness.starvation_episodes ~throughput ~fair_share ~threshold:0.1)
              0 per_window
          and total = windows * List.length per_window in
          {
            n_flows;
            qdisc = qdisc_name;
            jain_long = result.jain_index;
            jain_short_p10 = U.Stats.percentile jains 10.0;
            starved_windows =
              (if total = 0 then 0.0 else float_of_int starved /. float_of_int total);
            min_flow_mbps = U.Units.to_mbps (Array.fold_left Float.min infinity goodputs);
            max_flow_mbps = U.Units.to_mbps (Array.fold_left Float.max 0.0 goodputs);
          })
        qdiscs)
    [ 2; 4; 8 ]

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b
    "E6: sub-packet BDP regime (400 kbit/s, 80 ms RTT; BDP < 3 packets total)";
  let table =
    U.Table.create
      ~columns:
        [
          ("flows", U.Table.Right);
          ("qdisc", U.Table.Left);
          ("jain (long)", U.Table.Right);
          ("jain 2s-window p10", U.Table.Right);
          ("starved windows", U.Table.Right);
          ("min Mbit/s", U.Table.Right);
          ("max Mbit/s", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          string_of_int r.n_flows;
          r.qdisc;
          U.Table.cell_f ~decimals:3 r.jain_long;
          U.Table.cell_f ~decimals:3 r.jain_short_p10;
          U.Table.cell_pct r.starved_windows;
          U.Table.cell_f ~decimals:3 r.min_flow_mbps;
          U.Table.cell_f ~decimals:3 r.max_flow_mbps;
        ])
    rows;
  Report.table b table
