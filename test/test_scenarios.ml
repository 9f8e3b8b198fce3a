(* Integration tests: full scenarios through the public API, checking the
   paper's qualitative claims hold in the simulator. These are the
   "does the whole stack behave like a network" tests. *)

module Scenario = Ccsim_core.Scenario
module Results = Ccsim_core.Results
module U = Ccsim_util

let mbps = U.Units.mbps

let run_pair ?(rate = 48.0) ?(duration = 40.0) ?qdisc cca_a cca_b =
  let scenario =
    Scenario.make ~name:"pair" ~rate_bps:(mbps rate) ~delay_s:0.025 ?qdisc ~duration
      ~warmup:10.0
      [
        Scenario.flow "a" ~cca:cca_a ~app:Scenario.Bulk;
        Scenario.flow "b" ~cca:cca_b ~app:Scenario.Bulk;
      ]
  in
  Scenario.run scenario

let test_reno_pair_fair_and_efficient () =
  let r = run_pair Scenario.Reno Scenario.Reno in
  Alcotest.(check bool) "jain ~1" true (r.jain_index > 0.95);
  Alcotest.(check bool) "high utilization" true (r.utilization > 0.85)

let test_cubic_beats_reno_on_fifo () =
  let r = run_pair Scenario.Cubic Scenario.Reno in
  let a = Results.find r "a" and b = Results.find r "b" in
  Alcotest.(check bool) "cubic takes more" true (a.goodput_bps > b.goodput_bps)

let test_bbr_dominates_reno_on_fifo () =
  let r = run_pair Scenario.Bbr Scenario.Reno in
  let a = Results.find r "a" and b = Results.find r "b" in
  Alcotest.(check bool) "bbr takes far more than fair share" true
    (a.goodput_bps > 2.0 *. b.goodput_bps)

let test_vegas_loses_to_reno_on_fifo () =
  let r = run_pair Scenario.Vegas Scenario.Reno in
  let a = Results.find r "a" and b = Results.find r "b" in
  Alcotest.(check bool) "delay-based yields" true (a.goodput_bps < b.goodput_bps)

let test_drr_equalizes_heterogeneous_pairs () =
  List.iter
    (fun (cca_a, cca_b) ->
      let r =
        run_pair ~qdisc:(Scenario.Drr { quantum_bytes = None; limit_bytes = None }) cca_a cca_b
      in
      Alcotest.(check bool) "fq isolates" true (r.jain_index > 0.85))
    [
      (Scenario.Cubic, Scenario.Reno);
      (Scenario.Bbr, Scenario.Reno);
      (Scenario.Vegas, Scenario.Reno);
    ]

let test_warmup_excluded_from_goodput () =
  (* A flow starting after warmup still reports its own-window goodput. *)
  let scenario =
    Scenario.make ~name:"late" ~rate_bps:(mbps 20.0) ~delay_s:0.01 ~duration:30.0 ~warmup:5.0
      [ Scenario.flow "late" ~cca:Scenario.Cubic ~app:Scenario.Bulk ~start:20.0 ]
  in
  let r = Scenario.run scenario in
  let f = Results.find r "late" in
  (* Goodput is measured over [20, 30], during which it fills the link. *)
  Alcotest.(check bool) "late flow measured from its start" true (f.goodput_bps > mbps 10.0)

let test_shaped_flow_pinned_to_plan () =
  List.iter
    (fun cca ->
      let scenario =
        Scenario.make ~name:"plan" ~rate_bps:(mbps 100.0) ~delay_s:0.02 ~duration:20.0
          ~warmup:5.0
          [
            Scenario.flow "flow" ~cca ~app:Scenario.Bulk
              ~ingress:
                (Ccsim_net.Topology.Shape
                   { rate_bps = mbps 20.0; burst_bytes = 100_000 });
          ]
      in
      let r = Scenario.run scenario in
      let f = Results.find r "flow" in
      let got = U.Units.to_mbps f.goodput_bps in
      (* Loss-based CCAs track the plan rate almost exactly; BBRv1's
         bursts above the token rate cost it some of the plan (a known
         BBR-vs-shaper pathology — see EXPERIMENTS.md/E2). Either way
         the allocation is set by the shaper, never above the plan. *)
      Alcotest.(check bool) "at or below the plan regardless of CCA" true
        (got > 12.0 && got < 20.5))
    [ Scenario.Reno; Scenario.Cubic; Scenario.Bbr ]

let test_cbr_under_capacity_gets_demand () =
  let scenario =
    Scenario.make ~name:"demand" ~rate_bps:(mbps 50.0) ~delay_s:0.02 ~duration:20.0 ~warmup:5.0
      [
        Scenario.flow "a" ~cca:Scenario.Cubic ~app:(Scenario.Cbr_tcp { rate_bps = mbps 10.0 });
        Scenario.flow "b" ~cca:Scenario.Bbr ~app:(Scenario.Cbr_tcp { rate_bps = mbps 15.0 });
      ]
  in
  let r = Scenario.run scenario in
  let a = Results.find r "a" and b = Results.find r "b" in
  Alcotest.(check bool) "a gets its 10M" true (Float.abs (U.Units.to_mbps a.goodput_bps -. 10.0) < 1.0);
  Alcotest.(check bool) "b gets its 15M" true (Float.abs (U.Units.to_mbps b.goodput_bps -. 15.0) < 1.5)

let test_udp_cbr_unaffected_by_tcp_under_drr () =
  let scenario =
    Scenario.make ~name:"isolation" ~rate_bps:(mbps 20.0) ~delay_s:0.01
      ~qdisc:(Scenario.Drr { quantum_bytes = None; limit_bytes = None })
      ~duration:20.0 ~warmup:5.0
      [
        Scenario.flow "cbr" ~app:(Scenario.Cbr_udp { rate_bps = mbps 3.0 });
        Scenario.flow "bulk" ~cca:Scenario.Cubic ~app:Scenario.Bulk;
      ]
  in
  let r = Scenario.run scenario in
  let cbr = Results.find r "cbr" in
  Alcotest.(check bool) "cbr keeps its rate under fq" true
    (U.Units.to_mbps cbr.goodput_bps > 2.7)

let test_scenario_determinism () =
  let run () =
    let r = run_pair ~duration:20.0 Scenario.Cubic Scenario.Reno in
    List.map (fun (f : Results.flow_result) -> f.goodput_bps) r.flows
  in
  let a = run () and b = run () in
  List.iter2 (fun x y -> Alcotest.(check (float 1e-9)) "bit-identical reruns" x y) a b

let test_short_flows_background () =
  let scenario =
    Scenario.make ~name:"bg" ~rate_bps:(mbps 50.0) ~delay_s:0.01 ~duration:20.0 ~warmup:5.0
      ~short_flows:
        { Scenario.arrival_rate = 10.0; mean_size_bytes = 30_000.0; sf_stop = Some 15.0 }
      [ Scenario.flow "bulk" ~cca:Scenario.Cubic ~app:Scenario.Bulk ]
  in
  let r = Scenario.run scenario in
  match r.short_flow_stats with
  | None -> Alcotest.fail "short-flow stats missing"
  | Some s ->
      Alcotest.(check bool) "flows spawned" true (s.spawned > 50);
      Alcotest.(check bool) "most completed" true
        (float_of_int s.completed > 0.9 *. float_of_int s.spawned)

let test_nimbus_handle_exposed () =
  let scenario =
    Scenario.make ~name:"nimbus" ~rate_bps:(mbps 48.0) ~delay_s:0.05 ~duration:20.0 ~warmup:5.0
      [
        Scenario.flow "probe"
          ~cca:(Scenario.Nimbus { capacity_bps = mbps 48.0 })
          ~app:Scenario.Bulk;
      ]
  in
  let r = Scenario.run scenario in
  let probe = Results.find r "probe" in
  match probe.nimbus with
  | None -> Alcotest.fail "nimbus handle missing"
  | Some h ->
      Alcotest.(check bool) "elasticity series populated" true
        (U.Timeseries.length h.elasticity > 5);
      (* Solo probe on an idle link: no cross traffic, low elasticity. *)
      let values = U.Timeseries.values h.elasticity in
      Alcotest.(check bool) "solo probe reads inelastic" true
        (U.Stats.percentile values 90.0 < 0.5)

let test_results_lookup_missing () =
  let r = run_pair ~duration:15.0 Scenario.Reno Scenario.Reno in
  Alcotest.check_raises "unknown label" Not_found (fun () -> ignore (Results.find r "nope"))

(* The Mathis et al. law: a Reno flow whose only losses are i.i.d. with
   probability p converges to goodput (MSS/RTT) * sqrt(3/2) / sqrt(p).
   A 4xBDP FIFO at 1 Gbit/s keeps congestion loss out, so the fault
   plan's wire loss is the only loss. Tolerance and grid: EXPERIMENTS.md,
   "Mathis-law oracle". Above p = 0.01 timeouts dominate and a correct
   Reno falls outside the band. *)
let test_reno_mathis_law () =
  let rate_bps = 1e9 in
  List.iter
    (fun (p, rtt_s, seed) ->
      let bdp_bytes = int_of_float (rate_bps *. rtt_s /. 8.0) in
      let scenario =
        (* The dumbbell's edge links add 1 ms each way. *)
        Scenario.make ~name:"mathis" ~rate_bps ~delay_s:((rtt_s /. 2.0) -. 0.001)
          ~qdisc:(Scenario.Fifo { limit_bytes = Some (4 * bdp_bytes) })
          ~duration:60.0 ~warmup:5.0 ~seed
          [ Scenario.flow "reno" ~cca:Scenario.Reno ~app:Scenario.Bulk ]
      in
      let plan =
        match Ccsim_faults.Plan.parse (Printf.sprintf "loss at=0 dur=61 p=%g" p) with
        | Ok plan -> plan
        | Error msg -> Alcotest.fail msg
      in
      let r =
        Ccsim_faults.Plan.with_armed (Some { Ccsim_faults.Plan.plan; seed }) (fun () ->
            Scenario.run scenario)
      in
      let f = Results.find r "reno" in
      let mss_bits = 8.0 *. float_of_int U.Units.mss in
      let predicted = mss_bits /. f.mean_srtt_s *. sqrt 1.5 /. sqrt p in
      let ratio = f.goodput_bps /. predicted in
      Alcotest.(check bool)
        (Printf.sprintf "p=%g rtt=%gms seed=%d: goodput/Mathis %.3f in [0.8, 1.25]" p
           (1e3 *. rtt_s) seed ratio)
        true
        (ratio >= 0.8 && ratio <= 1.25))
    (List.concat_map
       (fun p ->
         List.concat_map
           (fun rtt_s -> List.map (fun seed -> (p, rtt_s, seed)) [ 42; 7 ])
           [ 0.02; 0.05; 0.1 ])
       [ 0.002; 0.005; 0.01 ])

let suite =
  [
    ("reno/reno: fair and efficient", `Slow, test_reno_pair_fair_and_efficient);
    ("cubic/reno: cubic wins on fifo", `Slow, test_cubic_beats_reno_on_fifo);
    ("bbr/reno: bbr dominates on fifo", `Slow, test_bbr_dominates_reno_on_fifo);
    ("vegas/reno: delay-based yields", `Slow, test_vegas_loses_to_reno_on_fifo);
    ("drr: heterogeneous pairs equalized", `Slow, test_drr_equalizes_heterogeneous_pairs);
    ("scenario: late start measured correctly", `Quick, test_warmup_excluded_from_goodput);
    ("scenario: shaping pins any CCA to the plan", `Slow, test_shaped_flow_pinned_to_plan);
    ("scenario: demand met under capacity", `Quick, test_cbr_under_capacity_gets_demand);
    ("scenario: drr isolates udp cbr", `Quick, test_udp_cbr_unaffected_by_tcp_under_drr);
    ("scenario: deterministic", `Quick, test_scenario_determinism);
    ("scenario: background short flows", `Quick, test_short_flows_background);
    ("scenario: nimbus handle exposed", `Quick, test_nimbus_handle_exposed);
    ("results: missing label raises", `Quick, test_results_lookup_missing);
    ("reno: Mathis law under i.i.d. loss", `Quick, test_reno_mathis_law);
  ]
