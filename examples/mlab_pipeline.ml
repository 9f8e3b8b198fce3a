(* The §3.1 M-Lab pipeline end to end, twice:

   1. over the synthetic labelled NDT population (as `ccsim fig2`), and
   2. over NDT records produced by *actually simulating* speedtest flows
      through contended and uncontended paths — showing that the same
      analysis code runs on simulator output and that the TCPInfo
      accounting (AppLimited / RWndLimited) drives categorization.

   Run with: dune exec examples/mlab_pipeline.exe *)

module Scenario = Ccsim_core.Scenario
module Results = Ccsim_core.Results
module M = Ccsim_measure
module U = Ccsim_util

(* Simulate one NDT speedtest under the given conditions and convert the
   snapshots to an NDT record. *)
let simulated_ndt ~id ~label ~flows ~gt =
  let scenario =
    Scenario.make ~name:label ~rate_bps:(U.Units.mbps 50.0) ~delay_s:0.02 ~duration:14.0
      ~warmup:1.0 ~seed:(1000 + id)
      (Scenario.flow "ndt" ~cca:Scenario.Cubic ~app:(Scenario.Speedtest { duration = 10.0 })
       :: flows)
  in
  let result = Scenario.run scenario in
  let ndt_flow = Results.find result "ndt" in
  match ndt_flow.speedtest with
  | None -> None
  | Some st ->
      Option.map
        (fun r -> M.Ndt.with_ground_truth r gt)
        (M.Ndt.of_speedtest ~id ~access:M.Ndt.Fixed st.snapshots)

let () =
  (* Part 1: the paper-scale synthetic population. *)
  let rng = U.Rng.create 7 in
  let records = M.Ndt.generate ~rng ~n:3000 in
  let report = M.Mlab_analysis.analyze records in
  Format.printf "Synthetic population: %a@.@." M.Mlab_analysis.pp_report report;
  (* Part 2: records from simulated speedtests. *)
  let cases =
    [
      ("uncontended", [], M.Ndt.Gt_clean_bulk);
      ( "app-limited cross traffic",
        [
          Scenario.flow "cbr"
            ~app:(Scenario.Cbr_tcp { rate_bps = U.Units.mbps 8.0 })
            ~cca:Scenario.Reno;
        ],
        M.Ndt.Gt_clean_bulk );
      ( "contended (bulk joins mid-test)",
        [ Scenario.flow "bulk" ~cca:Scenario.Cubic ~app:Scenario.Bulk ~start:4.0 ],
        M.Ndt.Gt_contended 1 );
    ]
  in
  print_endline "Simulated speedtests through the packet-level simulator:";
  List.iteri
    (fun id (label, flows, gt) ->
      match simulated_ndt ~id ~label ~flows ~gt with
      | None -> Printf.printf "  %-34s (no snapshots)\n" label
      | Some record ->
          let verdict = M.Mlab_analysis.analyze_record record in
          Printf.printf "  %-34s mean %5.1f Mbit/s  changes=%d  shift=%4.1f M  verdict: %s\n"
            label record.mean_throughput_mbps
            (List.length verdict.change_points)
            verdict.largest_shift_mbps
            (if verdict.contention_consistent then "contention-consistent"
             else "no contention signal"))
    cases
