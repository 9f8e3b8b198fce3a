(* Ccsim_fluid: the fluid population engine and the hybrid coupling.

   The load-bearing tests are the ISSUE-6 acceptance checks: a 4-flow
   dumbbell run agrees between the packet and fluid backends within the
   documented tolerance (EXPERIMENTS.md), and the byte-conservation
   watchdog invariant trips when accounting is corrupted — in both the
   standalone and the hybrid (DES-coupled) configuration. *)

module U = Ccsim_util
module Fl = Ccsim_fluid
module Obs = Ccsim_obs
module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module Tcp = Ccsim_tcp
module App = Ccsim_app
module Core = Ccsim_core

let feq = U.Feq.feq

(* ---- model table ---- *)

let test_model_names () =
  List.iter
    (fun m ->
      let name = Fl.Fluid_model.name m in
      Alcotest.(check bool)
        (Printf.sprintf "of_name %s roundtrips" name)
        true
        (Fl.Fluid_model.of_name name = Some m);
      Alcotest.(check bool)
        (Printf.sprintf "of_index %s roundtrips" name)
        true
        (Fl.Fluid_model.of_index (Fl.Fluid_model.index m) = m))
    [ Fl.Fluid_model.Reno; Fl.Fluid_model.Cubic; Fl.Fluid_model.Bbr ];
  Alcotest.(check (option bool)) "unknown name" None
    (Option.map (fun _ -> true) (Fl.Fluid_model.of_name "dctcp"))

(* ---- engine basics ---- *)

let simple_engine ?(models = [ Fl.Fluid_model.Reno ]) ?dt_s ~capacity_mbps ~seed () =
  let engine = Fl.Fluid_engine.create ?dt_s ~warmup_s:2.0 ~seed () in
  let capacity_bps = U.Units.mbps capacity_mbps in
  let buffer_bytes = 2 * U.Units.bdp_bytes ~rate_bps:capacity_bps ~rtt_s:0.04 in
  let link = Fl.Fluid_engine.add_link engine ~capacity_bps ~buffer_bytes in
  let flows =
    List.map
      (fun model -> Fl.Fluid_engine.add_flow engine ~link ~model ~rtt_base_s:0.04 ())
      models
  in
  (engine, link, flows)

let test_single_flow_fills_link () =
  let engine, link, _ = simple_engine ~capacity_mbps:10.0 ~seed:1 () in
  Fl.Fluid_engine.run engine ~until_s:20.0;
  let cap = Fl.Fluid_engine.link_capacity_bps engine link in
  let served = Fl.Fluid_engine.link_served_bytes engine link *. 8.0 /. 20.0 in
  Alcotest.(check bool)
    (Printf.sprintf "one Reno flow keeps the link busy (%.2f of capacity)" (served /. cap))
    true
    (served >= 0.8 *. cap);
  Alcotest.(check bool) "served never exceeds capacity" true (served <= cap *. 1.0001)

let test_conservation_exact () =
  let engine = Fl.Fluid_engine.create ~dt_s:0.02 ~seed:5 () in
  let rng = U.Rng.create 6 in
  let links =
    Array.init 50 (fun _ ->
        Fl.Fluid_engine.add_link engine ~capacity_bps:(U.Units.mbps 50.0)
          ~buffer_bytes:100_000)
  in
  for i = 0 to 199 do
    let link = links.(i mod Array.length links) in
    let model = Fl.Fluid_model.of_index (i mod 3) in
    let rtt_base_s = U.Rng.uniform rng ~lo:0.015 ~hi:0.08 in
    ignore
      (Fl.Fluid_engine.add_flow engine ~link ~model ~rtt_base_s
         ~cap_bps:(U.Units.mbps 30.0)
         ~on_off_s:(3.0, 5.0) ())
  done;
  Fl.Fluid_engine.run engine ~until_s:10.0;
  let totals = Fl.Fluid_engine.totals engine in
  Alcotest.(check bool) "population moved bytes" true (totals.Fl.Fluid_engine.offered_bytes > 0.0);
  let tol = Float.max 1024.0 (1e-6 *. totals.Fl.Fluid_engine.offered_bytes) in
  Alcotest.(check bool)
    (Printf.sprintf "engine residual %.3g within %.3g"
       (Fl.Fluid_engine.residual_bytes engine) tol)
    true
    (Float.abs (Fl.Fluid_engine.residual_bytes engine) <= tol);
  Array.iter
    (fun l ->
      Alcotest.(check bool) "per-link residual tiny" true
        (Float.abs (Fl.Fluid_engine.link_residual_bytes engine l) <= tol))
    links

let test_determinism_same_seed () =
  let run () =
    let engine, link, flows =
      simple_engine
        ~models:[ Fl.Fluid_model.Cubic; Fl.Fluid_model.Bbr; Fl.Fluid_model.Reno ]
        ~capacity_mbps:40.0 ~seed:11 ()
    in
    Fl.Fluid_engine.run engine ~until_s:8.0;
    ( Fl.Fluid_engine.link_served_bytes engine link,
      List.map (Fl.Fluid_engine.flow_goodput_bps engine) flows )
  in
  let served_a, goodputs_a = run () in
  let served_b, goodputs_b = run () in
  Alcotest.(check bool) "served bytes bit-identical" true (feq ~eps:0.0 served_a served_b);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "per-flow goodput bit-identical" true (feq ~eps:0.0 a b))
    goodputs_a goodputs_b

let test_sealed_after_step () =
  let engine, link, _ = simple_engine ~capacity_mbps:10.0 ~seed:2 () in
  Fl.Fluid_engine.step engine;
  Alcotest.(check bool) "add_flow after seal raises" true
    (try
       ignore
         (Fl.Fluid_engine.add_flow engine ~link ~model:Fl.Fluid_model.Reno
            ~rtt_base_s:0.04 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "add_link after seal raises" true
    (try
       ignore (Fl.Fluid_engine.add_link engine ~capacity_bps:1e6 ~buffer_bytes:10_000);
       false
     with Invalid_argument _ -> true)

(* ---- fluid vs packet cross-validation (ISSUE-6 acceptance) ----

   Four identical Reno bulk flows on a 40 Mbit/s dumbbell, both
   backends. Tolerance (documented in EXPERIMENTS.md): each per-flow
   goodput within 15% of the fair share, and the aggregates within 10%
   of each other. *)

let xval_rate = U.Units.mbps 40.0
let xval_rtt = 2.0 *. (0.02 +. 0.001) (* bottleneck + default edge delay, both ways *)
let xval_buffer = 2 * U.Units.bdp_bytes ~rate_bps:xval_rate ~rtt_s:xval_rtt
let xval_duration = 20.0
let xval_warmup = 5.0

let test_cross_validation_4flow () =
  (* Packet backend. *)
  let scenario =
    Core.Scenario.make ~name:"xval4"
      ~qdisc:(Core.Scenario.Fifo { limit_bytes = Some xval_buffer })
      ~duration:xval_duration ~warmup:xval_warmup ~seed:7 ~rate_bps:xval_rate
      ~delay_s:0.02
      (List.init 4 (fun i ->
           Core.Scenario.flow ~cca:Core.Scenario.Reno (Printf.sprintf "f%d" i)))
  in
  let packet = Core.Scenario.run scenario in
  (* Fluid backend: same capacity, buffer, RTT, CCA, horizon. *)
  let engine = Fl.Fluid_engine.create ~warmup_s:xval_warmup ~seed:7 () in
  let link = Fl.Fluid_engine.add_link engine ~capacity_bps:xval_rate ~buffer_bytes:xval_buffer in
  let fluid_flows =
    List.init 4 (fun _ ->
        Fl.Fluid_engine.add_flow engine ~link ~model:Fl.Fluid_model.Reno
          ~rtt_base_s:xval_rtt ())
  in
  Fl.Fluid_engine.run engine ~until_s:xval_duration;
  let payload_frac = float_of_int U.Units.mss /. float_of_int (U.Units.mss + U.Units.header_bytes) in
  let fair = xval_rate /. 4.0 *. payload_frac in
  let tol = 0.15 *. fair in
  let fluid_goodputs = List.map (Fl.Fluid_engine.flow_goodput_bps engine) fluid_flows in
  let packet_goodputs =
    List.init 4 (fun i ->
        (Core.Results.find packet (Printf.sprintf "f%d" i)).Core.Results.goodput_bps)
  in
  List.iteri
    (fun i g ->
      Alcotest.(check bool)
        (Printf.sprintf "fluid flow %d near fair share (%.2f vs %.2f Mbit/s)" i
           (U.Units.to_mbps g) (U.Units.to_mbps fair))
        true (feq ~eps:tol g fair))
    fluid_goodputs;
  List.iteri
    (fun i g ->
      Alcotest.(check bool)
        (Printf.sprintf "packet flow %d near fair share (%.2f vs %.2f Mbit/s)" i
           (U.Units.to_mbps g) (U.Units.to_mbps fair))
        true (feq ~eps:tol g fair))
    packet_goodputs;
  List.iteri
    (fun i (g_fluid, g_packet) ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d: fluid %.2f vs packet %.2f Mbit/s" i
           (U.Units.to_mbps g_fluid) (U.Units.to_mbps g_packet))
        true
        (feq ~eps:tol g_fluid g_packet))
    (List.combine fluid_goodputs packet_goodputs);
  let sum = List.fold_left ( +. ) 0.0 in
  Alcotest.(check bool) "aggregates within 10%" true
    (feq ~eps:(0.10 *. 4.0 *. fair) (sum fluid_goodputs) (sum packet_goodputs))

(* ---- watchdog: byte-conservation trips under injected corruption ---- *)

let test_watchdog_trips_on_skew () =
  let w = Obs.Watchdog.create () in
  let scope = Obs.Scope.v ~watchdog:w () in
  Obs.Scope.with_scope scope @@ fun () ->
  let engine, link, _ = simple_engine ~capacity_mbps:10.0 ~seed:4 () in
  Fl.Fluid_engine.run engine ~until_s:1.0;
  (* Clean run: the final sweep inside [run] already passed. *)
  Alcotest.(check bool) "no violation on clean run" true (Obs.Watchdog.violation w = None);
  Fl.Fluid_engine.inject_accounting_skew engine ~link ~bytes:1e6;
  let tripped =
    try
      Obs.Watchdog.check_now w ~now:(Fl.Fluid_engine.now_s engine);
      None
    with Obs.Watchdog.Violation v -> Some v
  in
  match tripped with
  | None -> Alcotest.fail "corrupted accounting did not trip the watchdog"
  | Some v ->
      Alcotest.(check string) "component" "fluid" v.Obs.Watchdog.component;
      Alcotest.(check string) "invariant" "byte_conservation" v.Obs.Watchdog.invariant

(* ---- hybrid coupling ---- *)

let build_hybrid ?watchdog ~rate_mbps ~bg_flows ~seed () =
  let scope =
    match watchdog with None -> Obs.Scope.none | Some w -> Obs.Scope.v ~watchdog:w ()
  in
  Obs.Scope.with_scope scope @@ fun () ->
  let sim = Sim.create () in
  let rate = U.Units.mbps rate_mbps in
  let limit_bytes = 4 * U.Units.bdp_bytes ~rate_bps:rate ~rtt_s:0.04 in
  let qdisc = Net.Fifo.create ~limit_bytes () in
  let topo = Net.Topology.dumbbell sim ~rate_bps:rate ~delay_s:0.02 ~qdisc () in
  let engine = Fl.Fluid_engine.create ~seed:(seed + 1) () in
  let fl = Fl.Fluid_engine.add_link engine ~capacity_bps:rate ~buffer_bytes:limit_bytes in
  for _ = 1 to bg_flows do
    ignore
      (Fl.Fluid_engine.add_flow engine ~link:fl ~model:Fl.Fluid_model.Reno
         ~rtt_base_s:0.04 ())
  done;
  let driver = Fl.Fluid_driver.attach sim engine ~couplings:[ (fl, topo.Net.Topology.bottleneck) ] in
  let conn = Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Cubic.create ()) () in
  ignore (App.Bulk.start sim ~sender:conn.Tcp.Connection.sender ());
  (sim, engine, fl, driver, conn)

let foreground_goodput ~bg_flows =
  let sim, _, _, driver, conn = build_hybrid ~rate_mbps:20.0 ~bg_flows ~seed:21 () in
  Sim.run ~until:10.0 sim;
  Fl.Fluid_driver.catch_up driver ~until_s:10.0;
  float_of_int (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver) *. 8.0 /. 10.0

let test_hybrid_background_throttles_foreground () =
  let alone = foreground_goodput ~bg_flows:0 in
  let contended = foreground_goodput ~bg_flows:4 in
  Alcotest.(check bool)
    (Printf.sprintf "foreground alone saturates (%.1f Mbit/s)" (U.Units.to_mbps alone))
    true
    (alone >= 0.7 *. U.Units.mbps 20.0);
  Alcotest.(check bool)
    (Printf.sprintf "fluid background takes a share (%.1f vs %.1f Mbit/s)"
       (U.Units.to_mbps contended) (U.Units.to_mbps alone))
    true
    (contended <= 0.6 *. alone)

let test_hybrid_fluid_sees_packet_share () =
  let sim, engine, fl, driver, _ = build_hybrid ~rate_mbps:20.0 ~bg_flows:4 ~seed:22 () in
  Sim.run ~until:10.0 sim;
  Fl.Fluid_driver.catch_up driver ~until_s:10.0;
  Alcotest.(check bool) "fluid clock reached the horizon" true
    (feq ~eps:(2.0 *. Fl.Fluid_engine.dt_s engine) (Fl.Fluid_engine.now_s engine) 10.0);
  let bg = Fl.Fluid_engine.link_served_bytes engine fl *. 8.0 /. 10.0 in
  Alcotest.(check bool) "background moved traffic" true (bg > U.Units.mbps 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "background yielded to the packet flow (%.1f Mbit/s)"
       (U.Units.to_mbps bg))
    true
    (bg <= 0.9 *. U.Units.mbps 20.0)

let test_hybrid_watchdog_trips () =
  let w = Obs.Watchdog.create () in
  let sim, engine, fl, driver, _ =
    build_hybrid ~watchdog:w ~rate_mbps:20.0 ~bg_flows:4 ~seed:23 ()
  in
  Sim.run ~until:2.0 sim;
  Fl.Fluid_engine.inject_accounting_skew engine ~link:fl ~bytes:5e6;
  let tripped =
    try
      Fl.Fluid_driver.catch_up driver ~until_s:2.5;
      None
    with Obs.Watchdog.Violation v -> Some v
  in
  match tripped with
  | None -> Alcotest.fail "hybrid byte-conservation corruption did not trip the watchdog"
  | Some v ->
      (* Whichever conservation check sweeps first — the engine-wide one
         or the per-coupling one — must catch the skew. *)
      Alcotest.(check bool)
        (Printf.sprintf "fluid component tripped (%s)" v.Obs.Watchdog.component)
        true
        (v.Obs.Watchdog.component = "fluid" || v.Obs.Watchdog.component = "fluid/coupling:0");
      Alcotest.(check bool)
        (Printf.sprintf "conservation invariant (%s)" v.Obs.Watchdog.invariant)
        true
        (List.mem v.Obs.Watchdog.invariant [ "byte_conservation"; "fluid_byte_conservation" ])

(* ---- cross-traffic plumbing in lib/net ---- *)

let test_link_cross_rate_validation () =
  let sim = Sim.create () in
  let link = Net.Link.create sim ~rate_bps:1e6 ~delay_s:0.01 ~sink:(fun _ -> ()) () in
  Alcotest.(check (float 0.0)) "cross rate starts at zero" 0.0 (Net.Link.cross_rate_bps link);
  Net.Link.set_cross_rate_bps link 5e5;
  Alcotest.(check (float 0.0)) "cross rate stored" 5e5 (Net.Link.cross_rate_bps link);
  Alcotest.check_raises "negative cross rate rejected"
    (Invalid_argument "Link.set_cross_rate_bps: negative rate") (fun () ->
      Net.Link.set_cross_rate_bps link (-1.0))

let test_fifo_cross_backlog () =
  let q = Net.Fifo.create ~limit_bytes:10_000 () in
  let data seq = Net.Packet.data ~flow:0 ~seq ~payload_bytes:1448 ~sent_at:0.0 () in
  q.Net.Qdisc.set_cross_backlog 9_000;
  Alcotest.(check bool) "cross backlog counts against the limit" false
    (q.Net.Qdisc.enqueue (data 0));
  q.Net.Qdisc.set_cross_backlog 0;
  Alcotest.(check bool) "admission restored when cross traffic drains" true
    (q.Net.Qdisc.enqueue (data 1));
  Alcotest.(check int) "real backlog counts real packets only" 1
    (q.Net.Qdisc.backlog_packets ())

(* ---- the p1 prevalence experiment ---- *)

let test_p1_fluid_small () =
  let r = Core.P1_prevalence.run ~n:60 ~seed:9 () in
  Alcotest.(check bool) "prevalence is a fraction" true
    (r.Core.P1_prevalence.prevalence >= 0.0 && r.Core.P1_prevalence.prevalence <= 1.0);
  Alcotest.(check int) "population accounted" 60
    (List.fold_left
       (fun acc (t : Core.P1_prevalence.tier_row) -> acc + t.Core.P1_prevalence.users)
       0 r.Core.P1_prevalence.tier_rows);
  let rendered = Core.P1_prevalence.render r in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render mentions prevalence" true
    (contains ~sub:"in contention" rendered)

let suite =
  [
    Alcotest.test_case "model: name/index roundtrips" `Quick test_model_names;
    Alcotest.test_case "engine: one flow fills a link" `Quick test_single_flow_fills_link;
    Alcotest.test_case "engine: byte conservation is exact" `Quick test_conservation_exact;
    Alcotest.test_case "engine: same seed, identical results" `Quick test_determinism_same_seed;
    Alcotest.test_case "engine: population seals on first step" `Quick test_sealed_after_step;
    Alcotest.test_case "xval: 4-flow dumbbell fluid vs packet" `Slow test_cross_validation_4flow;
    Alcotest.test_case "watchdog: injected skew trips conservation" `Quick
      test_watchdog_trips_on_skew;
    Alcotest.test_case "hybrid: background throttles foreground" `Slow
      test_hybrid_background_throttles_foreground;
    Alcotest.test_case "hybrid: fluid share yields to packet flow" `Slow
      test_hybrid_fluid_sees_packet_share;
    Alcotest.test_case "hybrid: coupling watchdog trips on skew" `Quick
      test_hybrid_watchdog_trips;
    Alcotest.test_case "net: link cross-rate term validated" `Quick
      test_link_cross_rate_validation;
    Alcotest.test_case "net: fifo admission sees cross backlog" `Quick test_fifo_cross_backlog;
    Alcotest.test_case "p1: small fluid population runs" `Quick test_p1_fluid_small;
  ]
