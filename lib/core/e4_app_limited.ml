module U = Ccsim_util

type row = {
  offered_each_mbps : float;
  offered_sum_mbps : float;
  goodput_a_mbps : float;
  goodput_b_mbps : float;
  demand_satisfied_a : float;
  demand_satisfied_b : float;
  jain : float;
}

let capacity_bps = U.Units.mbps 50.0

let warmup_s = 5.0

let run ?(duration = 30.0) ?(seed = 42) () =
  let rates_mbps = [ 5.0; 10.0; 15.0; 20.0; 25.0; 30.0; 35.0 ] in
  List.map
    (fun rate ->
      let rate_bps = U.Units.mbps rate in
      let scenario =
        Scenario.make
          ~name:(Printf.sprintf "e4/%gMbps-each" rate)
          ~rate_bps:capacity_bps ~delay_s:0.02 ~duration ~warmup:warmup_s ~seed
          [
            Scenario.flow "a" ~cca:Scenario.Cubic ~app:(Scenario.Cbr_tcp { rate_bps });
            Scenario.flow "b" ~cca:Scenario.Bbr ~app:(Scenario.Cbr_tcp { rate_bps });
          ]
      in
      let result = Scenario.run scenario in
      let a = Results.find result "a" and b = Results.find result "b" in
      let satisfied (f : Results.flow_result) =
        if f.offered_bps <= 0.0 then 1.0 else Float.min 1.0 (f.goodput_bps /. f.offered_bps)
      in
      {
        offered_each_mbps = rate;
        offered_sum_mbps = 2.0 *. rate;
        goodput_a_mbps = U.Units.to_mbps a.goodput_bps;
        goodput_b_mbps = U.Units.to_mbps b.goodput_bps;
        demand_satisfied_a = satisfied a;
        demand_satisfied_b = satisfied b;
        jain = result.jain_index;
      })
    rates_mbps

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b
    "E4: app-limited allocation = demand until the demand sum crosses capacity (50 Mbit/s)";
  let table =
    U.Table.create
      ~columns:
        [
          ("offered each", U.Table.Right);
          ("sum", U.Table.Right);
          ("cubic got", U.Table.Right);
          ("bbr got", U.Table.Right);
          ("satisfied A", U.Table.Right);
          ("satisfied B", U.Table.Right);
          ("jain", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          Printf.sprintf "%.0f M" r.offered_each_mbps;
          Printf.sprintf "%.0f M" r.offered_sum_mbps;
          U.Table.cell_f r.goodput_a_mbps;
          U.Table.cell_f r.goodput_b_mbps;
          U.Table.cell_pct r.demand_satisfied_a;
          U.Table.cell_pct r.demand_satisfied_b;
          U.Table.cell_f ~decimals:3 r.jain;
        ])
    rows;
  Report.table b table
