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
  (* A bulk flow over a wandering link (x1's volatility) still delivers
     data and the simulator stays consistent. *)
  let scenario =
    Ccsim_core.Scenario.make ~name:"varlink" ~rate_bps:20e6 ~delay_s:0.02
      ~rate_variation:(Ccsim_core.Scenario.Ou_wander { volatility = 0.2 })
      ~duration:20.0 ~warmup:5.0
      [ Ccsim_core.Scenario.flow "bulk" ~cca:Ccsim_core.Scenario.Cubic ~app:Ccsim_core.Scenario.Bulk ]
  in
  let result = Ccsim_core.Scenario.run scenario in
  let f = Ccsim_core.Results.find result "bulk" in
  Alcotest.(check bool) "delivers across rate changes" true (f.goodput_bps > 2e6)

(* --- Nimbus specifics -------------------------------------------------------------- *)

let test_nimbus_parameter_validation () =
  let sim = Sim.create () in
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

(* An estimation epoch runs on buffers the probe allocated at create.
   With no traffic the probe's rings are full at 5.76 s; the next 5 s
   hold ten epochs (and 500 sampler ticks), whose words allocated --
   minor plus direct major -- are counted. The bound is about twice the
   1,851 words per epoch measured with the kernel (ticks included, dev
   profile). Each epoch used to allocate about 2.4M words: 66 boxed
   512-point transforms. *)
let test_nimbus_epoch_allocation () =
  let sim = Sim.create () in
  let metrics = Ccsim_obs.Metrics.create () in
  let (_ : Ccsim_cca.Cca.t * Ccsim_cca.Nimbus.handle) =
    Ccsim_obs.Scope.(with_scope (v ~metrics ())) (fun () -> Ccsim_cca.Nimbus.create sim ())
  in
  let epochs () =
    match Ccsim_obs.Metrics.find_counter metrics "nimbus_estimation_epochs_total" with
    | Some c -> Ccsim_obs.Metrics.value c
    | None -> 0
  in
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  Sim.run ~until:6.0 sim;
  let epochs0 = epochs () and words0 = words () in
  Sim.run ~until:11.0 sim;
  let per_epoch = (words () -. words0) /. 10.0 in
  Alcotest.(check int) "ten epochs ran" 10 (epochs () - epochs0);
  Alcotest.(check bool)
    (Printf.sprintf "under 4000 words per epoch (%.0f)" per_epoch)
    true (per_epoch < 4000.0)

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
    ("rate: OU mean reversion", `Quick, test_ou_mean_reversion);
    ("rate: traffic over variable link", `Quick, test_variable_link_carries_traffic);
    ("nimbus: parameter validation", `Quick, test_nimbus_parameter_validation);
    ("nimbus: mode switch vs elastic cross", `Slow, test_nimbus_mode_switches_against_elastic_cross);
    ("nimbus: capacity estimate", `Quick, test_nimbus_capacity_estimate_without_hint);
    ("loss injection: transfers complete", `Slow, test_transfer_under_injected_loss);
    ("loss injection: ack loss tolerated", `Quick, test_ack_loss_tolerated);
    ("experiments: deterministic", `Quick, test_experiment_determinism);
    ("nimbus: epoch allocation budget", `Quick, test_nimbus_epoch_allocation);
  ]
