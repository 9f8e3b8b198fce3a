module U = Ccsim_util

type row = {
  cca : string;
  goodput_mbps : float;
  capacity_used : float;
  mean_srtt_ms : float;
  queueing_ms : float;
  retransmits : int;
}

let mean_rate_bps = U.Units.mbps 20.0
let rtt_s = 0.06

let warmup_s = 10.0

let run ?(duration = 60.0) ?(seed = 42) () =
  let ccas =
    [
      ("reno", Scenario.Reno);
      ("cubic", Scenario.Cubic);
      ("bbr", Scenario.Bbr);
      ("vegas", Scenario.Vegas);
      ("copa", Scenario.Copa);
    ]
  in
  List.map
    (fun (name, cca) ->
      let scenario =
        Scenario.make
          ~name:("x1/" ^ name)
          ~rate_bps:mean_rate_bps ~delay_s:(rtt_s /. 2.0)
          ~rate_variation:(Scenario.Ou_wander { volatility = 0.2 })
          ~duration ~warmup:warmup_s ~seed
          [ Scenario.flow "flow" ~cca ~app:Scenario.Bulk ]
      in
      let result = Scenario.run scenario in
      let f = Results.find result "flow" in
      (* The OU process is mean-reverting around the configured rate; use
         the configured mean as the capacity reference (the exact
         trajectory is seed-deterministic and identical across CCAs). *)
      let mean_capacity = mean_rate_bps in
      {
        cca = name;
        goodput_mbps = U.Units.to_mbps f.goodput_bps;
        capacity_used = f.goodput_bps /. mean_capacity;
        mean_srtt_ms = 1e3 *. f.mean_srtt_s;
        queueing_ms = 1e3 *. Float.max 0.0 (f.mean_srtt_s -. (rtt_s +. 0.002));
        retransmits = f.retransmits;
      })
    ccas

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b
    "X1: utilization vs self-inflicted delay on a wandering-capacity (cellular-like) link";
  let table =
    U.Table.create
      ~columns:
        [
          ("cca", U.Table.Left);
          ("goodput Mbit/s", U.Table.Right);
          ("capacity used", U.Table.Right);
          ("srtt ms", U.Table.Right);
          ("queueing ms", U.Table.Right);
          ("retransmits", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          r.cca;
          U.Table.cell_f r.goodput_mbps;
          U.Table.cell_pct r.capacity_used;
          U.Table.cell_f r.mean_srtt_ms;
          U.Table.cell_f r.queueing_ms;
          string_of_int r.retransmits;
        ])
    rows;
  Report.table b table
