(* Tests for the extension modules: CSV fields, variable-rate links,
   Nimbus specifics, and failure injection. *)

module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module U = Ccsim_util

(* --- Csv ----------------------------------------------------------------------- *)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (U.Csv.escape_field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (U.Csv.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (U.Csv.escape_field "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (U.Csv.escape_field "a\nb")

let test_csv_roundtrip () =
  let row = [ "plain"; "with,comma"; "with\"quote"; "" ] in
  Alcotest.(check (list string)) "roundtrip" row (U.Csv.parse_line (U.Csv.row_to_string row))

(* --- Rate_process --------------------------------------------------------------- *)

let test_markov_rate_changes () =
  let sim = Sim.create () in
  let link = Net.Link.create sim ~rate_bps:1e6 ~delay_s:0.0 ~sink:(fun _ -> ()) () in
  let rng = U.Rng.create 5 in
  let process =
    Net.Rate_process.markov sim ~link ~rng ~states_bps:[| 1e6; 5e6; 20e6 |] ~mean_dwell_s:0.5 ()
  in
  Sim.run ~until:20.0 sim;
  let series = Net.Rate_process.rate_series process in
  Alcotest.(check bool) "many transitions" true (U.Timeseries.length series > 10);
  Array.iter
    (fun r -> Alcotest.(check bool) "rate from state set" true (List.mem r [ 1e6; 5e6; 20e6 ]))
    (U.Timeseries.values series);
  Alcotest.(check bool) "link got a state rate" true
    (List.mem (Net.Link.rate_bps link) [ 1e6; 5e6; 20e6 ])

let test_ou_mean_reversion () =
  let sim = Sim.create () in
  let link = Net.Link.create sim ~rate_bps:20e6 ~delay_s:0.0 ~sink:(fun _ -> ()) () in
  let rng = U.Rng.create 6 in
  let process =
    Net.Rate_process.ornstein_uhlenbeck sim ~link ~rng ~mean_bps:20e6 ~volatility:0.15 ()
  in
  Sim.run ~until:120.0 sim;
  let mean = Net.Rate_process.mean_rate process in
  Alcotest.(check bool) "time-avg near configured mean" true
    (mean > 15e6 && mean < 25e6);
  Array.iter
    (fun r -> Alcotest.(check bool) "floored" true (r >= 1e6 -. 1.0))
    (U.Timeseries.values (Net.Rate_process.rate_series process))

let test_variable_link_carries_traffic () =
  (* A bulk flow over a Markov-varying link still delivers data and the
     simulator stays consistent. *)
  let scenario =
    Ccsim_core.Scenario.make ~name:"varlink" ~rate_bps:20e6 ~delay_s:0.02
      ~rate_variation:(Ccsim_core.Scenario.Markov_states [| 5e6; 20e6; 40e6 |])
      ~duration:20.0 ~warmup:5.0
      [ Ccsim_core.Scenario.flow "bulk" ~cca:Ccsim_core.Scenario.Cubic ~app:Ccsim_core.Scenario.Bulk ]
  in
  let result = Ccsim_core.Scenario.run scenario in
  let f = Ccsim_core.Results.find result "bulk" in
  Alcotest.(check bool) "delivers across rate changes" true (f.goodput_bps > 2e6)

(* --- Nimbus specifics -------------------------------------------------------------- *)

let test_nimbus_parameter_validation () =
  let sim = Sim.create () in
  Alcotest.check_raises "fft size" (Invalid_argument "Nimbus.create: fft_size must be a power of two")
    (fun () -> ignore (Ccsim_cca.Nimbus.create sim ~fft_size:100 ()));
  Alcotest.check_raises "amplitude"
    (Invalid_argument "Nimbus.create: pulse_amplitude must be in (0,1)") (fun () ->
      ignore (Ccsim_cca.Nimbus.create sim ~pulse_amplitude:1.5 ()))

let test_nimbus_mode_switches_against_elastic_cross () =
  let sim = Sim.create () in
  let rate = U.Units.mbps 48.0 in
  let bdp = U.Units.bdp_bytes ~rate_bps:rate ~rtt_s:0.1 in
  let topo =
    Net.Topology.dumbbell sim ~rate_bps:rate ~delay_s:0.05
      ~qdisc:(Net.Fifo.create ~limit_bytes:(2 * bdp) ())
      ()
  in
  let cca, handle =
    Ccsim_cca.Nimbus.create sim ~mode_switching:true ~known_capacity_bps:rate ()
  in
  let probe = Ccsim_tcp.Connection.establish topo ~flow:0 ~cca () in
  Ccsim_tcp.Sender.set_unlimited probe.sender;
  Alcotest.(check bool) "starts in delay mode" true (handle.mode () = `Delay);
  let cross = Ccsim_tcp.Connection.establish topo ~flow:1 ~cca:(Ccsim_cca.Reno.create ()) () in
  Ccsim_tcp.Sender.set_unlimited cross.sender;
  Sim.run ~until:40.0 sim;
  Alcotest.(check bool) "switched to competitive against Reno" true
    (handle.mode () = `Competitive)

let test_nimbus_capacity_estimate_without_hint () =
  let sim = Sim.create () in
  let rate = U.Units.mbps 24.0 in
  let topo = Net.Topology.dumbbell sim ~rate_bps:rate ~delay_s:0.02 () in
  let cca, handle = Ccsim_cca.Nimbus.create sim ~mode_switching:false () in
  let probe = Ccsim_tcp.Connection.establish topo ~flow:0 ~cca () in
  Ccsim_tcp.Sender.set_unlimited probe.sender;
  Sim.run ~until:20.0 sim;
  let mu = handle.capacity_estimate () in
  Alcotest.(check bool) "estimates near the true capacity" true
    (mu > 0.6 *. rate && mu < 1.3 *. rate)

(* --- failure injection ---------------------------------------------------------------- *)

(* Wrap a topology's forward entry with a deterministic random dropper
   and check TCP still completes transfers at various loss rates. *)
let test_transfer_under_injected_loss () =
  List.iter
    (fun loss_p ->
      let sim = Sim.create () in
      let topo = Net.Topology.dumbbell sim ~rate_bps:20e6 ~delay_s:0.01 () in
      let rng = U.Rng.create 99 in
      let lossy ~flow pkt =
        if Net.Packet.is_data pkt && U.Rng.bernoulli rng ~p:loss_p then ()
        else (topo.fwd_entry ~flow) pkt
      in
      let topo = { topo with Net.Topology.fwd_entry = lossy } in
      let completed = ref false in
      let conn =
        Ccsim_tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Reno.create ())
          ~on_complete:(fun _ -> completed := true)
          ()
      in
      Ccsim_tcp.Sender.write conn.sender 300_000;
      Ccsim_tcp.Sender.close conn.sender;
      Sim.run ~until:120.0 sim;
      Alcotest.(check bool)
        (Printf.sprintf "completes at %.0f%% loss" (100.0 *. loss_p))
        true !completed;
      Alcotest.(check int)
        (Printf.sprintf "no bytes lost at %.0f%% loss" (100.0 *. loss_p))
        300_000
        (Ccsim_tcp.Receiver.bytes_received conn.receiver))
    [ 0.01; 0.05; 0.15 ]

let test_ack_loss_tolerated () =
  let sim = Sim.create () in
  let topo = Net.Topology.dumbbell sim ~rate_bps:20e6 ~delay_s:0.01 () in
  let rng = U.Rng.create 7 in
  let lossy ~flow pkt =
    if U.Rng.bernoulli rng ~p:0.2 then () else (topo.rev_entry ~flow) pkt
  in
  let topo = { topo with Net.Topology.rev_entry = lossy } in
  let completed = ref false in
  let conn =
    Ccsim_tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Reno.create ())
      ~on_complete:(fun _ -> completed := true)
      ()
  in
  Ccsim_tcp.Sender.write conn.sender 200_000;
  Ccsim_tcp.Sender.close conn.sender;
  Sim.run ~until:60.0 sim;
  Alcotest.(check bool) "completes with 20% ack loss" true !completed

(* --- determinism across the whole experiment surface ----------------------------------- *)

let test_experiment_determinism () =
  let a = Ccsim_core.E4_app_limited.run ~duration:10.0 ~seed:7 () in
  let b = Ccsim_core.E4_app_limited.run ~duration:10.0 ~seed:7 () in
  List.iter2
    (fun (x : Ccsim_core.E4_app_limited.row) (y : Ccsim_core.E4_app_limited.row) ->
      Alcotest.(check (float 1e-12)) "goodput identical" x.goodput_a_mbps y.goodput_a_mbps)
    a b

let suite =
  [
    ("csv: escaping", `Quick, test_csv_escaping);
    ("csv: roundtrip", `Quick, test_csv_roundtrip);
    ("rate: markov transitions", `Quick, test_markov_rate_changes);
    ("rate: OU mean reversion", `Quick, test_ou_mean_reversion);
    ("rate: traffic over variable link", `Quick, test_variable_link_carries_traffic);
    ("nimbus: parameter validation", `Quick, test_nimbus_parameter_validation);
    ("nimbus: mode switch vs elastic cross", `Slow, test_nimbus_mode_switches_against_elastic_cross);
    ("nimbus: capacity estimate", `Quick, test_nimbus_capacity_estimate_without_hint);
    ("loss injection: transfers complete", `Slow, test_transfer_under_injected_loss);
    ("loss injection: ack loss tolerated", `Quick, test_ack_loss_tolerated);
    ("experiments: deterministic", `Quick, test_experiment_determinism);
  ]
