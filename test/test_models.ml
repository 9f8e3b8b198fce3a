(* Tests for the later-added models: LEDBAT and the RCS share tree. *)

module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module U = Ccsim_util
module Rcs = Ccsim_measure.Rcs

let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* --- LEDBAT unit behaviour -------------------------------------------------------- *)

let mss = U.Units.mss
let fmss = float_of_int mss

let ledbat_ack ~now ~rtt ~min_rtt cca =
  cca.Ccsim_cca.Cca.on_ack
    {
      Ccsim_cca.Cca.now;
      rtt_sample = Some rtt;
      srtt = rtt;
      min_rtt;
      newly_acked = mss;
      inflight = 10 * mss;
      delivery_rate = 1e6;
      app_limited = false;
    }

let test_ledbat_grows_below_target () =
  let cca = Ccsim_cca.Ledbat.create ~target_delay:0.025 () in
  let before = cca.Ccsim_cca.Cca.cwnd in
  for i = 1 to 50 do
    ledbat_ack ~now:(float_of_int i *. 0.05) ~rtt:0.051 ~min_rtt:0.05 cca
  done;
  Alcotest.(check bool) "grows with empty queue" true (cca.Ccsim_cca.Cca.cwnd > before)

let test_ledbat_shrinks_above_target () =
  let cca =
    Ccsim_cca.Ledbat.create ~target_delay:0.025 ~initial_cwnd:(50.0 *. fmss) ()
  in
  let before = cca.Ccsim_cca.Cca.cwnd in
  for i = 1 to 50 do
    (* 100 ms of queueing: far above the 25 ms target. *)
    ledbat_ack ~now:(float_of_int i *. 0.05) ~rtt:0.15 ~min_rtt:0.05 cca
  done;
  Alcotest.(check bool) "shrinks when delay exceeds target" true
    (cca.Ccsim_cca.Cca.cwnd < before)

let test_ledbat_yields_to_reno () =
  let sim = Sim.create () in
  let topo = Net.Topology.dumbbell sim ~rate_bps:(U.Units.mbps 20.0) ~delay_s:0.02 () in
  let scavenger =
    Ccsim_tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Ledbat.create ()) ()
  in
  let foreground =
    Ccsim_tcp.Connection.establish topo ~flow:1 ~cca:(Ccsim_cca.Reno.create ()) ()
  in
  Ccsim_tcp.Sender.set_unlimited scavenger.sender;
  Ccsim_tcp.Sender.set_unlimited foreground.sender;
  Sim.run ~until:40.0 sim;
  let rx c = float_of_int (Ccsim_tcp.Receiver.bytes_received c.Ccsim_tcp.Connection.receiver) in
  Alcotest.(check bool) "scavenger takes far less than the foreground flow" true
    (rx scavenger < 0.4 *. rx foreground)

let test_ledbat_uses_idle_link () =
  let sim = Sim.create () in
  let topo = Net.Topology.dumbbell sim ~rate_bps:(U.Units.mbps 20.0) ~delay_s:0.02 () in
  let conn = Ccsim_tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Ledbat.create ()) () in
  Ccsim_tcp.Sender.set_unlimited conn.sender;
  Sim.run ~until:30.0 sim;
  let goodput = Ccsim_tcp.Connection.goodput_bps conn ~over:30.0 in
  Alcotest.(check bool) "fills an idle link" true (goodput > U.Units.mbps 12.0)

(* --- RCS share tree ----------------------------------------------------------------- *)

let backlogged name = Rcs.leaf ~name ~demand_bps:Float.infinity

let test_rcs_flat_even_split () =
  let tree = Rcs.node ~name:"link" [ backlogged "a"; backlogged "b" ] in
  let alloc = Rcs.allocate ~capacity_bps:10e6 tree in
  check_close "a" 1.0 5e6 (Rcs.allocation_for alloc "a");
  check_close "b" 1.0 5e6 (Rcs.allocation_for alloc "b")

let test_rcs_hierarchy_beats_flow_splitting () =
  let tree =
    Rcs.node ~name:"link"
      [
        Rcs.node ~name:"userA" [ backlogged "a0"; backlogged "a1"; backlogged "a2" ];
        Rcs.node ~name:"userB" [ backlogged "b0" ];
      ]
  in
  let alloc = Rcs.allocate ~capacity_bps:12e6 tree in
  (* The user split is 50/50 no matter how many flows A opens. *)
  check_close "b gets half" 1.0 6e6 (Rcs.allocation_for alloc "b0");
  check_close "a flows split a's half" 1.0 2e6 (Rcs.allocation_for alloc "a0")

let test_rcs_demand_redistribution () =
  let tree =
    Rcs.node ~name:"link"
      [ Rcs.leaf ~name:"small" ~demand_bps:1e6; backlogged "big" ]
  in
  let alloc = Rcs.allocate ~capacity_bps:10e6 tree in
  check_close "demand met" 1.0 1e6 (Rcs.allocation_for alloc "small");
  check_close "residual redistributed" 1.0 9e6 (Rcs.allocation_for alloc "big")

let test_rcs_weights () =
  let tree =
    Rcs.node ~name:"link" [ Rcs.weighted 3.0 (backlogged "gold"); backlogged "bronze" ]
  in
  let alloc = Rcs.allocate ~capacity_bps:8e6 tree in
  check_close "gold 3x" 1.0 6e6 (Rcs.allocation_for alloc "gold");
  check_close "bronze 1x" 1.0 2e6 (Rcs.allocation_for alloc "bronze")

let test_rcs_nested_redistribution () =
  (* User A's demand is tiny; the slack flows to user B across the level. *)
  let tree =
    Rcs.node ~name:"link"
      [
        Rcs.node ~name:"userA" [ Rcs.leaf ~name:"a0" ~demand_bps:2e6 ];
        Rcs.node ~name:"userB" [ backlogged "b0" ];
      ]
  in
  let alloc = Rcs.allocate ~capacity_bps:10e6 tree in
  check_close "a's demand" 1.0 2e6 (Rcs.allocation_for alloc "a0");
  check_close "b absorbs slack" 1.0 8e6 (Rcs.allocation_for alloc "b0")

let test_rcs_validation () =
  Alcotest.check_raises "duplicate names" (Invalid_argument "Rcs.allocate: duplicate leaf names")
    (fun () ->
      ignore
        (Rcs.allocate ~capacity_bps:1.0 (Rcs.node ~name:"n" [ backlogged "x"; backlogged "x" ])));
  Alcotest.check_raises "empty node" (Invalid_argument "Rcs.node: needs at least one child")
    (fun () -> ignore (Rcs.node ~name:"n" []))

let test_rcs_total_demand () =
  let tree =
    Rcs.node ~name:"n" [ Rcs.leaf ~name:"a" ~demand_bps:1.0; Rcs.leaf ~name:"b" ~demand_bps:2.0 ]
  in
  check_close "sum" 1e-9 3.0 (Rcs.total_demand tree)

(* --- QCheck properties for the allocation model ---------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let demands_gen = list_of_size (Gen.int_range 1 8) (float_range 0.0 100.0) in
  [
    Test.make ~name:"rcs: flat allocation conserves capacity and respects demands" ~count:300
      (pair (float_range 1.0 1000.0) demands_gen)
      (fun (capacity, demands) ->
        let leaves =
          List.mapi (fun i d -> Rcs.leaf ~name:(string_of_int i) ~demand_bps:d) demands
        in
        let alloc = Rcs.allocate ~capacity_bps:capacity (Rcs.node ~name:"root" leaves) in
        let total = List.fold_left (fun acc (_, a) -> acc +. a) 0.0 alloc in
        let demand_sum = List.fold_left ( +. ) 0.0 demands in
        total <= capacity +. 1e-6
        && total <= demand_sum +. 1e-6
        && List.for_all2
             (fun d (_, a) -> a <= d +. 1e-6 && a >= -1e-9)
             demands alloc);
    Test.make ~name:"rcs: grouping flows never changes the capacity used" ~count:200
      (pair (float_range 1.0 1000.0) demands_gen)
      (fun (capacity, demands) ->
        let leaves () =
          List.mapi (fun i d -> Rcs.leaf ~name:(string_of_int i) ~demand_bps:d) demands
        in
        let flat = Rcs.allocate ~capacity_bps:capacity (Rcs.node ~name:"root" (leaves ())) in
        let grouped =
          Rcs.allocate ~capacity_bps:capacity
            (Rcs.node ~name:"root" [ Rcs.node ~name:"group" (leaves ()) ])
        in
        let sum l = List.fold_left (fun acc (_, a) -> acc +. a) 0.0 l in
        Float.abs (sum flat -. sum grouped) < 1e-6);
    Test.make ~name:"token bucket: long-run conformance" ~count:100
      (pair (float_range 1e3 1e7) (int_range 1500 100_000))
      (fun (rate_bps, burst) ->
        let tb = Ccsim_net.Token_bucket.create ~rate_bps ~burst_bytes:burst ~now:0.0 in
        (* Offer a packet every millisecond for 10 simulated seconds. *)
        let passed = ref 0 in
        for i = 1 to 10_000 do
          if
            Ccsim_net.Token_bucket.try_consume tb ~now:(0.001 *. float_of_int i) ~bytes:1000
          then incr passed
        done;
        (* Conforming bytes <= burst + rate * time (plus one packet of slack). *)
        float_of_int (!passed * 1000) <= float_of_int burst +. (rate_bps *. 10.0 /. 8.0) +. 1000.0);
  ]

let suite =
  List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
  @ [
    ("ledbat: grows below target delay", `Quick, test_ledbat_grows_below_target);
    ("ledbat: shrinks above target delay", `Quick, test_ledbat_shrinks_above_target);
    ("ledbat: yields to reno", `Quick, test_ledbat_yields_to_reno);
    ("ledbat: fills an idle link", `Quick, test_ledbat_uses_idle_link);
    ("rcs: flat even split", `Quick, test_rcs_flat_even_split);
    ("rcs: hierarchy beats flow-splitting", `Quick, test_rcs_hierarchy_beats_flow_splitting);
    ("rcs: demand-bounded redistribution", `Quick, test_rcs_demand_redistribution);
    ("rcs: weights", `Quick, test_rcs_weights);
    ("rcs: nested slack redistribution", `Quick, test_rcs_nested_redistribution);
    ("rcs: validation", `Quick, test_rcs_validation);
    ("rcs: total demand", `Quick, test_rcs_total_demand);
  ]
