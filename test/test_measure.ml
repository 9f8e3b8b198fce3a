(* Tests for the measurement layer: change-point detection, the elasticity
   verdict, telemetry, the NDT model, and the M-Lab pipeline. *)

module M = Ccsim_measure
module U = Ccsim_util
module Sim = Ccsim_engine.Sim

(* --- Changepoint --------------------------------------------------------------- *)

let step_signal ?(noise = 0.0) ?(seed = 5) levels =
  let rng = U.Rng.create seed in
  Array.concat
    (List.map
       (fun (level, len) ->
         Array.init len (fun _ -> level +. U.Rng.normal rng ~mean:0.0 ~stddev:noise))
       levels)

let test_pelt_single_step () =
  let signal = step_signal [ (1.0, 50); (5.0, 50) ] in
  Alcotest.(check (list int)) "finds the step" [ 50 ] (M.Changepoint.pelt signal)

let test_pelt_noisy_step () =
  let signal = step_signal ~noise:0.3 [ (1.0, 60); (5.0, 60) ] in
  match M.Changepoint.pelt signal with
  | [ c ] -> Alcotest.(check bool) "near the true step" true (abs (c - 60) <= 2)
  | other -> Alcotest.failf "expected one change, got %d" (List.length other)

let test_pelt_constant_signal () =
  let signal = step_signal ~noise:0.1 [ (3.0, 100) ] in
  Alcotest.(check (list int)) "no changes in a constant signal" [] (M.Changepoint.pelt signal)

let test_pelt_multiple_steps () =
  let signal = step_signal ~noise:0.2 [ (1.0, 40); (6.0, 40); (3.0, 40) ] in
  let changes = M.Changepoint.pelt signal in
  Alcotest.(check int) "two changes" 2 (List.length changes);
  List.iter2
    (fun c expected -> Alcotest.(check bool) "position" true (abs (c - expected) <= 2))
    changes [ 40; 80 ]

let test_pelt_short_signals () =
  Alcotest.(check (list int)) "empty" [] (M.Changepoint.pelt [||]);
  Alcotest.(check (list int)) "singleton" [] (M.Changepoint.pelt [| 1.0 |])

let test_segment_means () =
  let signal = step_signal [ (2.0, 10); (8.0, 10) ] in
  match M.Changepoint.segment_means signal [ 10 ] with
  | [ (0, 10, m1); (10, 20, m2) ] ->
      Alcotest.(check (float 1e-9)) "first mean" 2.0 m1;
      Alcotest.(check (float 1e-9)) "second mean" 8.0 m2
  | _ -> Alcotest.fail "expected two segments"

let test_largest_shift () =
  let signal = step_signal [ (2.0, 10); (8.0, 10); (5.0, 10) ] in
  Alcotest.(check (float 1e-9)) "largest jump" 6.0
    (M.Changepoint.largest_shift signal [ 10; 20 ]);
  Alcotest.(check (float 1e-9)) "no changes -> 0" 0.0 (M.Changepoint.largest_shift signal [])

let test_cost_function () =
  let prefix, prefix_sq = M.Changepoint.prefix_sums [| 1.0; 2.0; 3.0 |] in
  (* Cost of the whole segment: sum sq dev from mean 2 = 2. *)
  Alcotest.(check (float 1e-9)) "L2 cost" 2.0
    (M.Changepoint.segment_cost ~prefix ~prefix_sq 0 3);
  Alcotest.(check (float 1e-9)) "singleton cost 0" 0.0
    (M.Changepoint.segment_cost ~prefix ~prefix_sq 1 2)

(* --- Elasticity ---------------------------------------------------------------------- *)

let test_elasticity_length_checks () =
  (* A run without steady-state samples has no evidence of contention. *)
  let v = M.Elasticity.verdict [||] in
  Alcotest.(check int) "no samples" 0 v.samples;
  Alcotest.(check (float 0.0)) "p90 of nothing" 0.0 v.p90;
  Alcotest.(check bool) "no samples is inelastic" false v.elastic

(* --- Telemetry ------------------------------------------------------------------------ *)

let test_flow_monitor_throughput () =
  let sim = Sim.create () in
  let topo = Ccsim_net.Topology.dumbbell sim ~rate_bps:10e6 ~delay_s:0.01 () in
  let conn = Ccsim_tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Cubic.create ()) () in
  let monitor = M.Telemetry.Flow_monitor.create sim ~sender:conn.sender ~interval:0.1 () in
  Ccsim_tcp.Sender.set_unlimited conn.sender;
  Sim.run ~until:10.0 sim;
  let tput = M.Telemetry.Flow_monitor.throughput monitor in
  Alcotest.(check bool) "samples collected" true (U.Timeseries.length tput > 80);
  (* Steady-state samples near link rate. *)
  let steady = U.Timeseries.between tput ~lo:5.0 ~hi:10.0 in
  Alcotest.(check bool) "throughput near capacity" true
    (U.Timeseries.mean_value steady > 8e6)

let test_queue_monitor () =
  let sim = Sim.create () in
  let qdisc = Ccsim_net.Fifo.create () in
  let topo = Ccsim_net.Topology.dumbbell sim ~rate_bps:5e6 ~delay_s:0.02 ~qdisc () in
  let monitor = M.Telemetry.Queue_monitor.create sim ~qdisc () in
  let conn = Ccsim_tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Cubic.create ()) () in
  Ccsim_tcp.Sender.set_unlimited conn.sender;
  Sim.run ~until:10.0 sim;
  Alcotest.(check bool) "bulk flow builds queue" true
    (M.Telemetry.Queue_monitor.max_backlog_bytes monitor > 10_000.0);
  Alcotest.(check bool) "mean <= max" true
    (M.Telemetry.Queue_monitor.mean_backlog_bytes monitor
    <= M.Telemetry.Queue_monitor.max_backlog_bytes monitor)

(* Non-positive sampling intervals would silently hang Sim.every or
   divide by zero; all three monitors must reject them up front. *)
let test_monitor_interval_validation () =
  let sim = Sim.create () in
  let topo = Ccsim_net.Topology.dumbbell sim ~rate_bps:10e6 ~delay_s:0.01 () in
  let conn = Ccsim_tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Cubic.create ()) () in
  let qdisc = Ccsim_net.Fifo.create () in
  Alcotest.check_raises "flow monitor, zero"
    (Invalid_argument "Telemetry.Flow_monitor.create: interval must be positive") (fun () ->
      ignore (M.Telemetry.Flow_monitor.create sim ~sender:conn.sender ~interval:0.0 ()));
  Alcotest.check_raises "flow monitor, negative"
    (Invalid_argument "Telemetry.Flow_monitor.create: interval must be positive") (fun () ->
      ignore (M.Telemetry.Flow_monitor.create sim ~sender:conn.sender ~interval:(-0.1) ()));
  Alcotest.check_raises "queue monitor, zero"
    (Invalid_argument "Telemetry.Queue_monitor.create: interval must be positive") (fun () ->
      ignore (M.Telemetry.Queue_monitor.create sim ~qdisc ~interval:0.0 ()))

(* --- Ndt ------------------------------------------------------------------------------- *)

let test_ndt_generate_count_and_mixture () =
  let rng = U.Rng.create 9 in
  let records = M.Ndt.generate ~rng ~n:2000 in
  Alcotest.(check int) "count" 2000 (List.length records);
  let count p = List.length (List.filter p records) in
  let app =
    count (fun (r : M.Ndt.record) -> r.ground_truth = Some M.Ndt.Gt_app_limited)
  in
  let cellular = count (fun r -> r.access = M.Ndt.Cellular) in
  (* Mixture ~45% app-limited, ~20% cellular. *)
  Alcotest.(check bool) "app-limited share" true (app > 700 && app < 1100);
  Alcotest.(check bool) "cellular share" true (cellular > 250 && cellular < 550)

let test_ndt_traces_well_formed () =
  let rng = U.Rng.create 10 in
  let records = M.Ndt.generate ~rng ~n:200 in
  List.iter
    (fun (r : M.Ndt.record) ->
      Alcotest.(check int) "100 samples" 100 (Array.length r.throughput_mbps);
      Array.iter
        (fun v -> Alcotest.(check bool) "positive throughput" true (v > 0.0))
        r.throughput_mbps;
      Alcotest.(check bool) "fractions in range" true
        (r.app_limited_frac >= 0.0 && r.app_limited_frac <= 1.0
        && r.rwnd_limited_frac >= 0.0
        && r.rwnd_limited_frac <= 1.0))
    records

let test_ndt_contended_have_shifts () =
  let rng = U.Rng.create 11 in
  let records = M.Ndt.generate ~rng ~n:2000 in
  let contended =
    List.filter
      (fun (r : M.Ndt.record) ->
        match r.ground_truth with Some (M.Ndt.Gt_contended _) -> true | _ -> false)
      records
  in
  Alcotest.(check bool) "some contended flows" true (List.length contended > 20);
  let detected =
    List.filter
      (fun (r : M.Ndt.record) -> M.Changepoint.pelt r.throughput_mbps <> [])
      contended
  in
  (* PELT should see level shifts in nearly all genuinely contended flows. *)
  Alcotest.(check bool) "shifts detectable" true
    (float_of_int (List.length detected) > 0.8 *. float_of_int (List.length contended))

let test_ndt_of_speedtest () =
  let sim = Sim.create () in
  let topo = Ccsim_net.Topology.dumbbell sim ~rate_bps:20e6 ~delay_s:0.02 () in
  let conn = Ccsim_tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Cubic.create ()) () in
  let result = ref None in
  ignore
    (Ccsim_app.Speedtest.start sim ~sender:conn.sender ~duration:5.0
       ~on_finish:(fun r -> result := Some r)
       ());
  Sim.run ~until:6.0 sim;
  match !result with
  | None -> Alcotest.fail "no speedtest result"
  | Some r -> (
      match M.Ndt.of_speedtest ~id:7 ~access:M.Ndt.Fixed r.snapshots with
      | None -> Alcotest.fail "conversion failed"
      | Some record ->
          Alcotest.(check int) "id" 7 record.id;
          Alcotest.(check bool) "throughput trace present" true
            (Array.length record.throughput_mbps > 10);
          Alcotest.(check bool) "mean near link rate" true
            (record.mean_throughput_mbps > 12.0 && record.mean_throughput_mbps < 20.0))

let test_ndt_of_speedtest_too_short () =
  Alcotest.(check bool) "needs two snapshots" true
    (M.Ndt.of_speedtest ~id:0 ~access:M.Ndt.Fixed [||] = None)

(* --- Mlab_analysis ------------------------------------------------------------------------ *)

let test_mlab_categorize () =
  let rng = U.Rng.create 12 in
  let records = M.Ndt.generate ~rng ~n:500 in
  List.iter
    (fun (r : M.Ndt.record) ->
      let category = M.Mlab_analysis.categorize r in
      match (r.ground_truth, category) with
      | Some M.Ndt.Gt_app_limited, M.Mlab_analysis.App_limited -> ()
      | Some M.Ndt.Gt_rwnd_limited, M.Mlab_analysis.Rwnd_limited -> ()
      | Some M.Ndt.Gt_cellular_variation, M.Mlab_analysis.Cellular -> ()
      | Some (M.Ndt.Gt_contended _), M.Mlab_analysis.Candidate -> ()
      | Some M.Ndt.Gt_clean_bulk, M.Mlab_analysis.Candidate -> ()
      | gt, _ ->
          Alcotest.failf "misrouted category for %s"
            (match gt with
            | Some M.Ndt.Gt_app_limited -> "app-limited"
            | Some M.Ndt.Gt_rwnd_limited -> "rwnd-limited"
            | Some M.Ndt.Gt_cellular_variation -> "cellular"
            | Some (M.Ndt.Gt_contended _) -> "contended"
            | Some M.Ndt.Gt_clean_bulk -> "clean"
            | None -> "unlabelled"))
    records

let test_mlab_report_sums () =
  let rng = U.Rng.create 13 in
  let records = M.Ndt.generate ~rng ~n:1000 in
  let report = M.Mlab_analysis.analyze records in
  Alcotest.(check int) "categories partition the population" report.total
    (report.n_app_limited + report.n_rwnd_limited + report.n_cellular + report.n_candidates);
  Alcotest.(check bool) "consistent below candidates" true
    (report.n_contention_consistent <= report.n_candidates)

let test_mlab_detector_accuracy () =
  let rng = U.Rng.create 14 in
  let records = M.Ndt.generate ~rng ~n:3000 in
  let report = M.Mlab_analysis.analyze records in
  match M.Mlab_analysis.score_against_ground_truth report with
  | None -> Alcotest.fail "labelled data must yield accuracy"
  | Some a ->
      Alcotest.(check bool) "high recall" true (a.recall > 0.8);
      Alcotest.(check bool) "high precision" true (a.precision > 0.8)

let test_mlab_unlabelled_accuracy_none () =
  let record =
    {
      M.Ndt.id = 0;
      access = M.Ndt.Fixed;
      duration_s = 10.0;
      interval_s = 0.1;
      throughput_mbps = Array.make 100 5.0;
      mean_throughput_mbps = 5.0;
      min_rtt_s = 0.02;
      app_limited_frac = 0.0;
      rwnd_limited_frac = 0.0;
      ground_truth = None;
    }
  in
  let report = M.Mlab_analysis.analyze [ record ] in
  Alcotest.(check bool) "no ground truth, no accuracy" true
    (M.Mlab_analysis.score_against_ground_truth report = None)

let suite =
  [
    ("pelt: single step", `Quick, test_pelt_single_step);
    ("pelt: noisy step", `Quick, test_pelt_noisy_step);
    ("pelt: constant signal", `Quick, test_pelt_constant_signal);
    ("pelt: multiple steps", `Quick, test_pelt_multiple_steps);
    ("pelt: degenerate inputs", `Quick, test_pelt_short_signals);
    ("changepoint: segment means", `Quick, test_segment_means);
    ("changepoint: largest shift", `Quick, test_largest_shift);
    ("changepoint: L2 cost", `Quick, test_cost_function);
    ("elasticity: validation", `Quick, test_elasticity_length_checks);
    ("telemetry: flow monitor", `Quick, test_flow_monitor_throughput);
    ("telemetry: queue monitor", `Quick, test_queue_monitor);
    ("telemetry: monitors reject non-positive intervals", `Quick,
     test_monitor_interval_validation);
    ("ndt: count and mixture", `Quick, test_ndt_generate_count_and_mixture);
    ("ndt: traces well-formed", `Quick, test_ndt_traces_well_formed);
    ("ndt: contended flows carry shifts", `Quick, test_ndt_contended_have_shifts);
    ("ndt: from simulated speedtest", `Quick, test_ndt_of_speedtest);
    ("ndt: too-short conversion", `Quick, test_ndt_of_speedtest_too_short);
    ("mlab: categorization matches ground truth", `Quick, test_mlab_categorize);
    ("mlab: report partitions", `Quick, test_mlab_report_sums);
    ("mlab: detector accuracy", `Quick, test_mlab_detector_accuracy);
    ("mlab: unlabelled data", `Quick, test_mlab_unlabelled_accuracy_none);
  ]
