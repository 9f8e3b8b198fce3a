module U = Ccsim_util

type row = {
  condition : string;
  aggressive_mbps : float;
  reno_mbps : float;
  ratio : float;
  cca_determined : bool;
}

let capacity = U.Units.mbps 40.0

let warmup_s = 10.0

let run ?(duration = 60.0) ?(seed = 42) () =
  let mk ~name ~qdisc ~ingress_a ~ingress_reno ~apps =
    let app_a, app_reno = apps in
    Scenario.make ~name ~rate_bps:capacity ~delay_s:0.02 ~qdisc ~duration ~warmup:warmup_s ~seed
      [
        Scenario.flow "aggressive" ~cca:Scenario.Cubic ~app:app_a ~ingress:ingress_a;
        Scenario.flow "reno" ~cca:Scenario.Reno ~app:app_reno ~ingress:ingress_reno;
      ]
  in
  let fifo = Scenario.Fifo { limit_bytes = None } in
  let drr = Scenario.Drr { quantum_bytes = None; limit_bytes = None } in
  let bulk = (Scenario.Bulk, Scenario.Bulk) in
  let shape r =
    Ccsim_net.Topology.Shape
      { rate_bps = r; burst_bytes = 50 * (U.Units.mss + U.Units.header_bytes) }
  in
  let cases =
    [
      (* (i) violated: per-user shaping below half the link means the
         shared segment never binds — each flow's bottleneck is its own
         ingress. *)
      ( "isolated ingress bottlenecks",
        mk ~name:"fig1/isolated" ~qdisc:fifo
          ~ingress_a:(shape (U.Units.mbps 15.0))
          ~ingress_reno:(shape (U.Units.mbps 15.0))
          ~apps:bulk );
      (* (ii) violated: both flows app-limited well below capacity. *)
      ( "shared but unsaturated",
        mk ~name:"fig1/unsaturated" ~qdisc:fifo ~ingress_a:Ccsim_net.Topology.No_ingress
          ~ingress_reno:Ccsim_net.Topology.No_ingress
          ~apps:
            ( Scenario.Cbr_tcp { rate_bps = U.Units.mbps 12.0 },
              Scenario.Cbr_tcp { rate_bps = U.Units.mbps 12.0 } ) );
      (* (iii) violated: saturated shared segment, but per-flow queues. *)
      ( "saturated, fair-queued",
        mk ~name:"fig1/fq" ~qdisc:drr ~ingress_a:Ccsim_net.Topology.No_ingress
          ~ingress_reno:Ccsim_net.Topology.No_ingress ~apps:bulk );
      (* All three hold: the only case where CCA dynamics can rule. *)
      ( "saturated, shared FIFO queue",
        mk ~name:"fig1/contended" ~qdisc:fifo ~ingress_a:Ccsim_net.Topology.No_ingress
          ~ingress_reno:Ccsim_net.Topology.No_ingress ~apps:bulk );
    ]
  in
  List.map
    (fun (condition, scenario) ->
      let result = Scenario.run scenario in
      let aggressive = Results.find result "aggressive" and reno = Results.find result "reno" in
      let ratio = aggressive.goodput_bps /. Float.max 1.0 reno.goodput_bps in
      {
        condition;
        aggressive_mbps = U.Units.to_mbps aggressive.goodput_bps;
        reno_mbps = U.Units.to_mbps reno.goodput_bps;
        ratio;
        cca_determined = ratio > 1.5 || ratio < 2.0 /. 3.0;
      })
    cases

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b
    "Figure 1 (backing data): CCA dynamics rule only when all three contention prerequisites hold";
  let table =
    U.Table.create
      ~columns:
        [
          ("condition", U.Table.Left);
          ("cubic Mbit/s", U.Table.Right);
          ("reno Mbit/s", U.Table.Right);
          ("ratio", U.Table.Right);
          ("allocation set by", U.Table.Left);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          r.condition;
          U.Table.cell_f r.aggressive_mbps;
          U.Table.cell_f r.reno_mbps;
          U.Table.cell_f r.ratio;
          (if r.cca_determined then "CCA dynamics" else "policy/demand");
        ])
    rows;
  Report.table b table
