(* Ccsim_faults: plan parsing, injector execution, determinism,
   observability, and watchdog behaviour under each fault type.

   The load-bearing properties are the PR's acceptance criteria: a
   (plan, seed) pair reproduces byte-identically; faults preserve the
   conservation invariants (they re-account, never leak); and the
   watchdog still catches real corruption while chaos is live, honoring
   its violation policy. *)

module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module Packet = Ccsim_net.Packet
module Obs = Ccsim_obs
module Scope = Obs.Scope
module Watchdog = Obs.Watchdog
module Faults = Ccsim_faults
module Plan = Faults.Plan
module Injector = Faults.Injector
module Scenario = Ccsim_core.Scenario
module Results = Ccsim_core.Results
module U = Ccsim_util

(* --- plan parsing ----------------------------------------------------- *)

let canonical =
  "outage at=20 dur=2; capacity at=5 factor=0.5 dur=3; ramp at=10 dur=4 factor=2; loss at=1 \
   dur=2 p=0.01; burst-loss at=30 dur=20 p-enter=0.01 p-exit=0.25 loss-good=0 loss-bad=0.3; \
   corrupt at=2 dur=3 p=0.001; duplicate at=2 dur=3 p=0.002; reorder at=4 dur=2 p=0.1 \
   delay=0.01; delay-spike at=6 dur=1 extra=0.05; qdisc-reset at=40; flap from=10 until=50 \
   mean-up=5 mean-down=0.5"

let test_plan_roundtrip () =
  match Plan.parse canonical with
  | Error msg -> Alcotest.fail msg
  | Ok plan ->
      Alcotest.(check int) "eleven events" 11 (List.length plan);
      Alcotest.(check string) "canonical fixed point" canonical (Plan.to_string plan);
      (* parse . to_string is the identity on any parsed plan *)
      (match Plan.parse (Plan.to_string plan) with
      | Ok again -> Alcotest.(check bool) "structural round-trip" true (plan = again)
      | Error msg -> Alcotest.fail msg);
      (* Numbers past %g's six significant digits render in full. *)
      List.iter
        (fun s ->
          match Plan.parse s with
          | Ok p -> Alcotest.(check string) "lossless fixed point" s (Plan.to_string p)
          | Error msg -> Alcotest.fail msg)
        [ "loss at=1.0000001 dur=2 p=0.1"; "outage at=1234567 dur=1" ]

let test_plan_defaults () =
  match Plan.parse "burst-loss at=1 dur=2" with
  | Ok [ Plan.Burst_loss { p_enter; p_exit; loss_good; loss_bad; _ } ] ->
      Alcotest.(check (float 0.0)) "p-enter default" 0.01 p_enter;
      Alcotest.(check (float 0.0)) "p-exit default" 0.25 p_exit;
      Alcotest.(check (float 0.0)) "loss-good default" 0.0 loss_good;
      Alcotest.(check (float 0.0)) "loss-bad default" 0.3 loss_bad
  | Ok _ -> Alcotest.fail "unexpected parse"
  | Error msg -> Alcotest.fail msg

let expect_error s =
  match Plan.parse s with
  | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
  | Error msg -> Alcotest.(check bool) "error is descriptive" true (String.length msg > 0)

let test_plan_errors () =
  expect_error "";
  expect_error "meteor at=1 dur=2";
  expect_error "outage at=1";
  expect_error "outage at=1 dur=0";
  expect_error "outage at=-1 dur=2";
  expect_error "loss at=1 dur=2 p=1.5";
  expect_error "loss at=1 dur=2 p=abc";
  expect_error "outage at=1 dur=2 bogus=3";
  expect_error "flap from=10 until=5";
  (* Holding-time means below the 1 ms floor would never finish a run. *)
  expect_error "flap from=0 until=20 mean-up=1e-300 mean-down=1e-300";
  expect_error "flap from=0 until=20 mean-up=1e-9 mean-down=1e-9";
  expect_error "capacity at=1 factor=0";
  (* A key given twice is an error that names it, not a silent last-wins. *)
  Alcotest.(check string) "repeated key named"
    "\"loss at=1 at=2 dur=1 p=0.1\": repeated key at="
    (match Plan.parse "loss at=1 at=2 dur=1 p=0.1" with Error msg -> msg | Ok _ -> "parsed")

let test_ambient_arming () =
  let plan = Plan.parse_exn "outage at=1 dur=1" in
  Alcotest.(check bool) "disarmed by default" true (Plan.armed () = None);
  Plan.with_armed
    (Some { Plan.plan; seed = 5 })
    (fun () ->
      (match Plan.armed () with
      | Some a ->
          Alcotest.(check int) "seed visible" 5 a.Plan.seed;
          Alcotest.(check string) "plan visible" "outage at=1 dur=1" (Plan.to_string a.Plan.plan)
      | None -> Alcotest.fail "plan not armed");
      Plan.with_armed None (fun () ->
          Alcotest.(check bool) "nested disarm" true (Plan.armed () = None)));
  Alcotest.(check bool) "restored after" true (Plan.armed () = None)

(* --- link impairment primitives --------------------------------------- *)

let data ?(flow = 1) ?(size = 1000) ?(seq = 0) () =
  Packet.data ~flow ~seq ~payload_bytes:size ~header_bytes:0 ~retx:false ~sent_at:0.0 ()

(* 1000 B/s link: one 1000 B packet per second of serialization. *)
let mk_link ?(rate_bps = 8_000.0) ?(delay_s = 0.001) sim ~sink =
  Net.Link.create sim ~rate_bps ~delay_s ~sink ()

let test_outage_pauses_delivery () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let link = mk_link sim ~sink:(fun p -> arrivals := (Sim.now sim, p.Packet.seq) :: !arrivals) in
  Net.Link.send link (data ~seq:1 ());
  ignore
    (Sim.schedule sim ~delay:1.5 (fun () ->
         Net.Link.set_outage link true;
         Net.Link.send link (data ~seq:2 ());
         Net.Link.send link (data ~seq:3 ())));
  ignore (Sim.schedule sim ~delay:10.0 (fun () -> Net.Link.set_outage link false));
  Sim.run sim;
  let arrivals = List.rev !arrivals in
  Alcotest.(check int) "all delivered eventually" 3 (List.length arrivals);
  (match arrivals with
  | (t1, s1) :: (t2, _) :: (t3, _) :: _ ->
      Alcotest.(check int) "first packet unaffected" 1 s1;
      Alcotest.(check bool) "first before outage" true (t1 < 1.5);
      Alcotest.(check bool) "second held until restore" true (t2 >= 11.0);
      Alcotest.(check bool) "third after second" true (t3 > t2)
  | _ -> Alcotest.fail "missing arrivals")

let test_loss_model_requires_rng () =
  let sim = Sim.create () in
  let link = mk_link sim ~sink:(fun _ -> ()) in
  Alcotest.(check bool) "raises without rng" true
    (match Net.Link.set_loss_model link (Some (Net.Link.Uniform { p = 0.5 })) with
    | () -> false
    | exception Invalid_argument _ -> true)

let run_impaired ~arm ~n =
  let sim = Sim.create () in
  let delivered = ref 0 in
  let link = mk_link sim ~sink:(fun _ -> incr delivered) in
  Net.Link.set_fault_rng link (U.Rng.create 11);
  arm link;
  for i = 1 to n do
    ignore
      (Sim.schedule sim ~delay:(float_of_int i) (fun () -> Net.Link.send link (data ~seq:i ())))
  done;
  Sim.run sim;
  (link, !delivered)

let test_uniform_loss () =
  let link, delivered =
    run_impaired ~n:20 ~arm:(fun l -> Net.Link.set_loss_model l (Some (Net.Link.Uniform { p = 1.0 })))
  in
  Alcotest.(check int) "nothing delivered at p=1" 0 delivered;
  Alcotest.(check int) "all counted lost" 20 (Net.Link.wire_lost_packets link)

let test_corruption_discard () =
  let link, delivered = run_impaired ~n:20 ~arm:(fun l -> Net.Link.set_corrupt_p l 1.0) in
  Alcotest.(check int) "nothing survives p=1 corruption" 0 delivered;
  Alcotest.(check int) "all counted corrupted" 20 (Net.Link.wire_corrupted_packets link);
  Alcotest.(check int) "corruption is not wire loss" 0 (Net.Link.wire_lost_packets link)

let test_duplication () =
  let link, delivered = run_impaired ~n:10 ~arm:(fun l -> Net.Link.set_duplicate_p l 1.0) in
  Alcotest.(check int) "every packet delivered twice" 20 delivered;
  Alcotest.(check int) "all counted duplicated" 10 (Net.Link.wire_duplicated_packets link)

let test_reorder_stretches_delivery () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let link =
    Net.Link.create sim ~rate_bps:8_000_000.0 ~delay_s:0.001
      ~sink:(fun p -> arrivals := p.Packet.seq :: !arrivals)
      ()
  in
  Net.Link.set_fault_rng link (U.Rng.create 11);
  (* Stretch the first packet's propagation by 50 ms (the reorder draw
     happens when its serialization completes at t=1ms), then disable:
     the second packet overtakes it. *)
  Net.Link.set_reorder link (Some (1.0, 0.05));
  Net.Link.send link (data ~seq:1 ());
  ignore
    (Sim.schedule sim ~delay:0.0015 (fun () ->
         Net.Link.set_reorder link None;
         Net.Link.send link (data ~seq:2 ())));
  Sim.run sim;
  Alcotest.(check (list int)) "second overtakes first" [ 2; 1 ] (List.rev !arrivals);
  Alcotest.(check int) "reorder counted" 1 (Net.Link.wire_reordered_packets link)

let test_qdisc_flush () =
  let sim = Sim.create () in
  let link = mk_link sim ~sink:(fun _ -> ()) in
  for i = 1 to 5 do
    Net.Link.send link (data ~seq:i ())
  done;
  (* One packet is in flight; the rest sit in the queue. *)
  let q = Net.Link.qdisc link in
  let backlog = q.Net.Qdisc.backlog_packets () in
  Alcotest.(check int) "backlog before flush" 4 backlog;
  let flushed = Net.Qdisc.flush q in
  Alcotest.(check int) "flush drains the backlog" 4 flushed;
  Alcotest.(check int) "backlog empty" 0 (q.Net.Qdisc.backlog_packets ());
  Alcotest.(check int) "flushed packets counted dropped" 4 q.Net.Qdisc.stats.Net.Qdisc.dropped;
  Sim.run sim

(* --- injector against a raw link -------------------------------------- *)

(* Drive [n] packets through a link with [plan] attached; returns the
   watchdog (caller-created, ambient) and the injector summary. *)
let injector_run ?(policy = Watchdog.Abort) ?(corrupt_at = None) ~plan ~n () =
  let w = Watchdog.create ~policy () in
  let summary =
    Scope.with_scope
      (Scope.v ~watchdog:w ())
      (fun () ->
        let sim = Sim.create () in
        let link = mk_link sim ~sink:(fun _ -> ()) in
        let inj = Injector.attach sim ~link ~plan:(Plan.parse_exn plan) ~seed:3 () in
        for i = 0 to n - 1 do
          ignore
            (Sim.schedule sim ~delay:(0.05 *. float_of_int i) (fun () ->
                 Net.Link.send link (data ~seq:i ())))
        done;
        (match corrupt_at with
        | None -> ()
        | Some t ->
            ignore
              (Sim.schedule sim ~delay:t (fun () ->
                   let st = (Net.Link.qdisc link).Net.Qdisc.stats in
                   st.Net.Qdisc.enqueued <- st.Net.Qdisc.enqueued + 7)));
        Sim.run sim;
        Injector.summary inj)
  in
  (w, summary)

let fault_type_plans =
  [
    ("outage", "outage at=0.5 dur=0.3");
    ("burst loss", "burst-loss at=0.2 dur=2 p-enter=0.5 p-exit=0.1 loss-bad=0.5");
    ("corruption", "corrupt at=0.2 dur=2 p=0.5");
    ("qdisc reset", "qdisc-reset at=0.5");
    ("loss", "loss at=0.2 dur=2 p=0.3");
    ("duplicate", "duplicate at=0.2 dur=2 p=0.5");
    ("reorder", "reorder at=0.2 dur=2 p=0.5 delay=0.02");
    ("delay spike", "delay-spike at=0.2 dur=2 extra=0.05");
    ("capacity", "capacity at=0.2 factor=0.5 dur=1");
    ("ramp", "ramp at=0.2 dur=1 factor=0.5");
    ("flap", "flap from=0.1 until=2 mean-up=0.3 mean-down=0.1");
  ]

let test_faults_preserve_conservation () =
  (* Every fault type runs under an aborting watchdog: the impairments
     must re-account packets (lost/flushed), never leak them. *)
  List.iter
    (fun (label, plan) ->
      match injector_run ~plan ~n:40 () with
      | _, summary ->
          Alcotest.(check bool)
            (label ^ ": armed") true
            (summary.Injector.armed >= 1)
      | exception Watchdog.Violation v ->
          Alcotest.fail
            (Printf.sprintf "%s broke conservation: %s" label (Watchdog.one_line v)))
    fault_type_plans

let test_watchdog_catches_corruption_under_faults () =
  (* Satellite: under each fault type, a real invariant violation must
     still be detected and must name the faulted component. *)
  List.iter
    (fun (label, plan) ->
      match injector_run ~plan ~n:40 ~corrupt_at:(Some 0.8) () with
      | _ -> Alcotest.fail (label ^ ": corruption went undetected")
      | exception Watchdog.Violation v ->
          Alcotest.(check string) (label ^ ": names component") "link/qdisc:fifo"
            v.Watchdog.component;
          Alcotest.(check string)
            (label ^ ": conservation invariant")
            "packet_conservation" v.Watchdog.invariant)
    [
      ("outage", "outage at=0.5 dur=0.3");
      ("burst loss", "burst-loss at=0.2 dur=2 p-enter=0.5 p-exit=0.1 loss-bad=0.5");
      ("corruption", "corrupt at=0.2 dur=2 p=0.5");
      ("qdisc reset", "qdisc-reset at=0.5");
    ]

let test_watchdog_policy_honored () =
  let plan = "burst-loss at=0.2 dur=2 p-enter=0.5 p-exit=0.1 loss-bad=0.5" in
  (* Abort: raises (covered above). Warn: completes, reports, not
     degraded. Quarantine: completes, reports, degraded. *)
  (match injector_run ~policy:Watchdog.Warn ~plan ~n:40 ~corrupt_at:(Some 0.8) () with
  | w, _ ->
      Alcotest.(check bool) "warn: violation recorded" true (Watchdog.violations w <> []);
      Alcotest.(check bool) "warn: not degraded" false (Watchdog.degraded w)
  | exception Watchdog.Violation _ -> Alcotest.fail "warn policy must not raise");
  match injector_run ~policy:Watchdog.Quarantine ~plan ~n:40 ~corrupt_at:(Some 0.8) () with
  | w, _ ->
      Alcotest.(check bool) "quarantine: violation recorded" true (Watchdog.violations w <> []);
      Alcotest.(check bool) "quarantine: degraded" true (Watchdog.degraded w);
      (match Watchdog.violation w with
      | Some v -> Alcotest.(check string) "names component" "link/qdisc:fifo" v.Watchdog.component
      | None -> Alcotest.fail "missing first violation")
  | exception Watchdog.Violation _ -> Alcotest.fail "quarantine policy must not raise"

let test_flap_restores_link () =
  let sim = Sim.create () in
  let link = mk_link sim ~sink:(fun _ -> ()) in
  let inj =
    Injector.attach sim ~link
      ~plan:(Plan.parse_exn "flap from=0 until=5 mean-up=0.5 mean-down=0.2")
      ~seed:3 ()
  in
  for i = 0 to 99 do
    ignore
      (Sim.schedule sim ~delay:(0.1 *. float_of_int i) (fun () -> Net.Link.send link (data ~seq:i ())))
  done;
  Sim.run sim;
  let s = Injector.summary inj in
  Alcotest.(check bool) "flapped at least once" true (s.Injector.fired >= 1);
  Alcotest.(check int) "every down has an up" s.Injector.fired s.Injector.cleared;
  Alcotest.(check bool) "link up at the end" false (Net.Link.is_down link)

let test_capacity_and_ramp_rates () =
  let sim = Sim.create () in
  let link = mk_link sim ~rate_bps:8_000.0 ~sink:(fun _ -> ()) in
  ignore
    (Injector.attach sim ~link ~plan:(Plan.parse_exn "capacity at=1 factor=0.5 dur=2") ~seed:3 ());
  ignore (Sim.schedule sim ~delay:1.5 (fun () ->
      Alcotest.(check (float 1e-6)) "capacity step live" 4_000.0 (Net.Link.rate_bps link)));
  Sim.run sim;
  Alcotest.(check (float 1e-6)) "capacity restored" 8_000.0 (Net.Link.rate_bps link);
  let sim2 = Sim.create () in
  let link2 = mk_link sim2 ~rate_bps:8_000.0 ~sink:(fun _ -> ()) in
  ignore (Injector.attach sim2 ~link:link2 ~plan:(Plan.parse_exn "ramp at=1 dur=2 factor=0.25") ~seed:3 ());
  Sim.run sim2;
  Alcotest.(check (float 1e-6)) "ramp lands on target" 2_000.0 (Net.Link.rate_bps link2)

(* --- end-to-end through Scenario --------------------------------------- *)

let chaos_scenario seed =
  Scenario.make ~name:"chaos-test" ~rate_bps:(U.Units.mbps 20.0) ~delay_s:0.02 ~duration:12.0
    ~warmup:2.0 ~seed
    [
      Scenario.flow "a" ~cca:Scenario.Cubic ~app:Scenario.Bulk;
      Scenario.flow "b" ~cca:Scenario.Reno ~app:Scenario.Bulk;
    ]

let run_chaos ?plan ?(fault_seed = 9) seed =
  let armed =
    Option.map (fun p -> { Plan.plan = Plan.parse_exn p; seed = fault_seed }) plan
  in
  Plan.with_armed armed (fun () -> Scenario.run (chaos_scenario seed))

let goodputs (r : Results.t) = Array.to_list (Results.goodputs r)

let test_scenario_fault_free_untouched () =
  let r = run_chaos 7 in
  Alcotest.(check bool) "no fault summary without a plan" true (r.Results.faults = None)

let test_scenario_chaos_deterministic () =
  let plan = "outage at=4 dur=1; burst-loss at=6 dur=4 p-enter=0.05 p-exit=0.2 loss-bad=0.2" in
  let r1 = run_chaos ~plan 7 and r2 = run_chaos ~plan 7 in
  Alcotest.(check (list (float 0.0))) "goodputs byte-identical" (goodputs r1) (goodputs r2);
  (match (r1.Results.faults, r2.Results.faults) with
  | Some s1, Some s2 ->
      Alcotest.(check bool) "summaries identical" true (s1 = s2);
      Alcotest.(check int) "both faults fired" 2 s1.Injector.fired;
      Alcotest.(check int) "both faults cleared" 2 s1.Injector.cleared;
      Alcotest.(check bool) "burst loss lost packets" true (s1.Injector.wire_lost > 0)
  | _ -> Alcotest.fail "missing fault summaries");
  (* The same workload under different chaos is a different run. *)
  let r3 = run_chaos ~plan ~fault_seed:10 7 in
  match r3.Results.faults with
  | Some s3 ->
      Alcotest.(check bool) "fault seed changes the loss pattern" true
        (s3.Injector.wire_lost <> (Option.get r1.Results.faults).Injector.wire_lost
        || goodputs r3 <> goodputs r1)
  | None -> Alcotest.fail "missing fault summary"

let test_scenario_outage_hurts_goodput () =
  let baseline = run_chaos 7 in
  let faulted = run_chaos ~plan:"outage at=4 dur=3" 7 in
  let total r =
    List.fold_left (fun acc (f : Results.flow_result) -> acc +. f.Results.goodput_bps) 0.0
      r.Results.flows
  in
  Alcotest.(check bool) "3s outage in a 12s run costs goodput" true
    (total faulted < 0.9 *. total baseline)

let test_scenario_observability () =
  (* Recorder journal + fault_span series + metrics counter, end to end. *)
  let recorder = Obs.Recorder.create () in
  let timeline = Obs.Timeline.create () in
  let metrics = Obs.Metrics.create () in
  let plan = "outage at=4 dur=1; qdisc-reset at=6" in
  let result =
    Scope.with_scope
      (Scope.v ~metrics ~recorder ~timeline ())
      (fun () -> run_chaos ~plan 7)
  in
  let fault_events = Obs.Recorder.by_kind recorder "fault" in
  let details = List.map (fun (e : Obs.Recorder.event) -> e.detail) fault_events in
  Alcotest.(check bool) "armed journaled" true (List.mem "armed" details);
  Alcotest.(check bool) "fired journaled" true (List.mem "fired" details);
  Alcotest.(check bool) "cleared journaled" true (List.mem "cleared" details);
  let spans =
    List.filter
      (fun s -> Obs.Timeline.name s = "fault_span")
      (Obs.Timeline.all_series timeline)
  in
  Alcotest.(check int) "one span series per plan event" 2 (List.length spans);
  Alcotest.(check bool) "spans carry points" true
    (List.for_all (fun s -> Obs.Timeline.length s > 0) spans);
  (match Obs.Metrics.find_counter metrics "faults_fired_total" with
  | Some c -> Alcotest.(check int) "fired counter" 2 (Obs.Metrics.value c)
  | None -> Alcotest.fail "faults_fired_total not registered");
  match result.Results.faults with
  | Some s -> Alcotest.(check int) "summary agrees" 2 s.Injector.fired
  | None -> Alcotest.fail "missing fault summary"

let test_instrumented_chaos_identical () =
  (* Observability must not change faulted results either. *)
  let plan = "burst-loss at=4 dur=4 p-enter=0.05 p-exit=0.2 loss-bad=0.2" in
  let plain = run_chaos ~plan 7 in
  let instrumented =
    Scope.with_scope
      (Scope.v ~recorder:(Obs.Recorder.create ()) ~timeline:(Obs.Timeline.create ())
         ~watchdog:(Watchdog.create ()) ())
      (fun () -> run_chaos ~plan 7)
  in
  Alcotest.(check (list (float 0.0))) "goodputs identical under instruments" (goodputs plain)
    (goodputs instrumented)

let test_c1_plans_parse () =
  List.iter
    (fun intensity ->
      match Ccsim_core.C1_chaos.plan_string ~duration:45.0 intensity with
      | None -> ()
      | Some s -> ignore (Plan.parse_exn s))
    Ccsim_core.C1_chaos.intensities

(* Valid plans of every event kind. Each field takes a float of any
   class (Test_obs.float_classes) folded into its range: times >= 0
   (with -0.0), positive durations and factors, probabilities in
   [0, 1], flap means >= 1 ms, and flap windows with until > from. *)
let plan_gen =
  let open QCheck.Gen in
  let mag = map (fun x -> if Float.is_finite x then Float.abs x else 1.0) Test_obs.float_classes in
  let time = frequency [ (9, mag); (1, return (-0.0)) ] in
  let pos = map (fun x -> if x > 0.0 then x else 1.0) mag in
  let prob =
    frequency
      [ (1, float_bound_inclusive 1.0); (1, map (fun x -> if x <= 1.0 then x else 1.0 /. x) mag) ]
  in
  let mean = map (fun x -> if x >= 0.001 then x else 0.001 +. x) mag in
  let window =
    map2
      (fun a b ->
        if a < b then (a, b)
        else if b < a then (b, a)
        else if a < Float.max_float then (a, Float.succ a)
        else (Float.pred a, a))
      mag mag
  in
  let event =
    oneof
      [
        map2 (fun at_s dur_s -> Plan.Outage { at_s; dur_s }) time pos;
        map3 (fun at_s factor dur_s -> Plan.Capacity { at_s; factor; dur_s }) time pos (opt pos);
        map3 (fun at_s dur_s factor -> Plan.Ramp { at_s; dur_s; factor }) time pos pos;
        map3 (fun at_s dur_s p -> Plan.Loss { at_s; dur_s; p }) time pos prob;
        (let* at_s = time and* dur_s = pos and* p_enter = prob and* p_exit = prob
         and* loss_good = prob and* loss_bad = prob in
         return (Plan.Burst_loss { at_s; dur_s; p_enter; p_exit; loss_good; loss_bad }));
        map3 (fun at_s dur_s p -> Plan.Corrupt { at_s; dur_s; p }) time pos prob;
        map3 (fun at_s dur_s p -> Plan.Duplicate { at_s; dur_s; p }) time pos prob;
        (let* at_s = time and* dur_s = pos and* p = prob and* extra_s = pos in
         return (Plan.Reorder { at_s; dur_s; p; extra_s }));
        map3 (fun at_s dur_s extra_s -> Plan.Delay_spike { at_s; dur_s; extra_s }) time pos pos;
        map (fun at_s -> Plan.Qdisc_reset { at_s }) time;
        map3
          (fun (from_s, until_s) mean_up_s mean_down_s ->
            Plan.Flap { from_s; until_s; mean_up_s; mean_down_s })
          window mean mean;
      ]
  in
  list_size (int_range 1 5) event

(* Strings over the schema's alphabet: kinds, keys, number characters
   (hex floats and underscores included, which float_of_string reads),
   separators, non-finite spellings and stray letters. *)
let plan_soup =
  let open QCheck.Gen in
  let one s = map (String.make 1) (oneofl (List.of_seq (String.to_seq s))) in
  let token =
    frequency
      [
        ( 3,
          oneofl
            [ "outage"; "capacity"; "ramp"; "loss"; "burst-loss"; "corrupt"; "duplicate";
              "reorder"; "delay-spike"; "qdisc-reset"; "flap" ] );
        ( 4,
          oneofl
            [ "at="; "dur="; "factor="; "p="; "p-enter="; "p-exit="; "loss-good="; "loss-bad=";
              "delay="; "extra="; "from="; "until="; "mean-up="; "mean-down=" ] );
        (6, one "0123456789.eE+-_xXpP");
        (3, one " \t;\n=");
        (1, oneofl [ "nan"; "inf"; "-infinity"; "1e400"; "-0"; "0x1p-3"; "1e-320" ]);
        (1, one "abcdefghijklmnopqrstuvwxyz");
      ]
  in
  map (String.concat "") (list_size (int_range 0 40) token)

(* [q = p] treats -0.0 and 0.0 as equal; comparing the renderings too
   makes the round trip bitwise. *)
let reparses p =
  match Plan.parse (Plan.to_string p) with
  | Ok q -> q = p && String.equal (Plan.to_string q) (Plan.to_string p)
  | Error _ -> false

let plan_properties =
  let open QCheck in
  [
    Test.make ~name:"plan: parse inverts to_string on every valid plan" ~count:2000
      (make ~print:Plan.to_string plan_gen)
      reparses;
    Test.make ~name:"plan: any string parses to Ok or Error, never raises" ~count:5000
      (make ~print:(Printf.sprintf "%S") plan_soup)
      (fun s -> match Plan.parse s with Ok p -> reparses p | Error _ -> true);
  ]

let suite =
  [
    Alcotest.test_case "plan: canonical round-trip" `Quick test_plan_roundtrip;
    Alcotest.test_case "plan: burst-loss defaults" `Quick test_plan_defaults;
    Alcotest.test_case "plan: malformed clauses rejected" `Quick test_plan_errors;
    Alcotest.test_case "plan: ambient arming is scoped" `Quick test_ambient_arming;
    Alcotest.test_case "link: outage pauses and restore resumes" `Quick test_outage_pauses_delivery;
    Alcotest.test_case "link: stochastic impairments require an rng" `Quick
      test_loss_model_requires_rng;
    Alcotest.test_case "link: uniform loss consumes the wire" `Quick test_uniform_loss;
    Alcotest.test_case "link: corruption is checksum-discard" `Quick test_corruption_discard;
    Alcotest.test_case "link: duplication delivers ghosts" `Quick test_duplication;
    Alcotest.test_case "link: reorder lets packets overtake" `Quick test_reorder_stretches_delivery;
    Alcotest.test_case "qdisc: flush reclassifies backlog as drops" `Quick test_qdisc_flush;
    Alcotest.test_case "injector: every fault type preserves conservation" `Quick
      test_faults_preserve_conservation;
    Alcotest.test_case "watchdog: corruption caught under each fault type" `Quick
      test_watchdog_catches_corruption_under_faults;
    Alcotest.test_case "watchdog: warn/quarantine policies honored" `Quick
      test_watchdog_policy_honored;
    Alcotest.test_case "injector: flap always restores the link" `Quick test_flap_restores_link;
    Alcotest.test_case "injector: capacity step and ramp hit their rates" `Quick
      test_capacity_and_ramp_rates;
    Alcotest.test_case "scenario: fault-free run has no summary" `Slow
      test_scenario_fault_free_untouched;
    Alcotest.test_case "scenario: (plan, seed) reproduces exactly" `Slow
      test_scenario_chaos_deterministic;
    Alcotest.test_case "scenario: outage costs goodput" `Slow test_scenario_outage_hurts_goodput;
    Alcotest.test_case "scenario: journal, spans and counters" `Slow test_scenario_observability;
    Alcotest.test_case "scenario: instruments do not change chaos results" `Slow
      test_instrumented_chaos_identical;
    Alcotest.test_case "c1: canonical plans parse at every intensity" `Quick test_c1_plans_parse;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) plan_properties
