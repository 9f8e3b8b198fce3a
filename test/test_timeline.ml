(* Timeline subsystem: sampled series with bounded decimation, the
   invariant watchdog, Chrome trace export, and offline reproduction of
   the in-simulation detectors from an exported series file. *)

module Obs = Ccsim_obs
module Timeline = Obs.Timeline
module Watchdog = Obs.Watchdog
module Metrics = Obs.Metrics
module Profile = Obs.Profile
module Recorder = Obs.Recorder
module Scope = Obs.Scope
module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module M = Ccsim_measure
module Offline = M.Offline
module Scenario = Ccsim_core.Scenario
module Results = Ccsim_core.Results
module E = Ccsim_core.Experiments

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- timeline series ------------------------------------------------------ *)

let test_timeline_record_points () =
  let tl = Timeline.create () in
  let s = Timeline.series tl ~labels:[ ("flow", "a") ] "goodput" in
  Timeline.record s ~time:0.0 ~value:1.0;
  Timeline.record s ~time:0.5 ~value:2.0;
  Timeline.record s ~time:1.0 ~value:3.0;
  Alcotest.(check string) "name" "goodput" (Timeline.name s);
  Alcotest.(check int) "length" 3 (Timeline.length s);
  Alcotest.(check int) "stride" 1 (Timeline.stride s);
  (match Timeline.points s with
  | [| (0.0, 1.0); (0.5, 2.0); (1.0, 3.0) |] -> ()
  | _ -> Alcotest.fail "unexpected points");
  (* Same (name, labels) resolves to the same series, labels order-insensitively. *)
  let s' = Timeline.series tl ~labels:[ ("flow", "a") ] "goodput" in
  Timeline.record s' ~time:1.5 ~value:4.0;
  Alcotest.(check int) "shared" 4 (Timeline.length s);
  Alcotest.(check int) "one series" 1 (List.length (Timeline.all_series tl))

let test_timeline_invalid_args () =
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Timeline.create: interval must be positive") (fun () ->
      ignore (Timeline.create ~interval:0.0 ()));
  Alcotest.check_raises "capacity too small"
    (Invalid_argument "Timeline.create: capacity must be at least 2") (fun () ->
      ignore (Timeline.create ~capacity:1 ()))

let test_timeline_decimation () =
  let tl = Timeline.create ~capacity:8 () in
  let s = Timeline.series tl "x" in
  for i = 0 to 99 do
    Timeline.record s ~time:(0.1 *. float_of_int i) ~value:(float_of_int i)
  done;
  Alcotest.(check bool) "bounded" true (Timeline.length s <= 8);
  let stride = Timeline.stride s in
  Alcotest.(check bool) "stride grew" true (stride > 1);
  (* Power-of-two stride, and the retained points align with it. *)
  Alcotest.(check bool) "power of two" true (stride land (stride - 1) = 0);
  Array.iteri
    (fun i (_, v) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "point %d aligned" i)
        (float_of_int (i * stride))
        v)
    (Timeline.points s);
  (* The series still spans the whole run: the last retained point is
     within one stride of the final offered point. *)
  let pts = Timeline.points s in
  let last_t, _ = pts.(Array.length pts - 1) in
  Alcotest.(check bool) "spans the run" true (last_t >= 0.1 *. float_of_int (99 - stride))

let test_timeline_ordering_latch () =
  let tl = Timeline.create () in
  let s = Timeline.series tl "x" in
  Timeline.record s ~time:1.0 ~value:1.0;
  Timeline.record s ~time:0.5 ~value:2.0;
  (* dropped, not appended *)
  Alcotest.(check int) "dropped" 1 (Timeline.length s);
  match Timeline.ordering_violation tl with
  | Some ("x", 1.0, 0.5) -> ()
  | _ -> Alcotest.fail "ordering violation not latched"

let test_timeline_ndjson_roundtrip () =
  let tl = Timeline.create () in
  let s = Timeline.series tl ~labels:[ ("flow", "a"); ("scenario", "s,1") ] "goodput" in
  let awkward = [| 0.1 +. 0.2; 1e-17; -3.75; 123456789.123456789; 0.0 |] in
  Array.iteri (fun i v -> Timeline.record s ~time:(float_of_int i *. 0.1) ~value:v) awkward;
  let nd = Timeline.to_ndjson ~extra:[ ("job", "j1") ] tl in
  match Offline.of_string nd with
  | [ p ] ->
      Alcotest.(check (option string)) "job" (Some "j1") p.Offline.job;
      Alcotest.(check string) "name" "goodput" p.Offline.name;
      Alcotest.(check (list (pair string string)))
        "labels"
        [ ("flow", "a"); ("scenario", "s,1") ]
        p.Offline.labels;
      Alcotest.(check int) "points" 5 (Array.length p.Offline.values);
      (* Round-trip precision: bit-for-bit equal after parse. *)
      Array.iteri
        (fun i v ->
          Alcotest.(check bool)
            (Printf.sprintf "value %d exact" i)
            true
            (Float.equal v awkward.(i)))
        p.Offline.values
  | l -> Alcotest.fail (Printf.sprintf "expected 1 series, got %d" (List.length l))

let test_timeline_csv () =
  let tl = Timeline.create () in
  let s = Timeline.series tl ~labels:[ ("q", "fifo") ] "backlog" in
  Timeline.record s ~time:0.25 ~value:1500.0;
  let csv = Timeline.to_csv ~header:true ~extra:[ ("job", "j") ] tl in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + row" 2 (List.length lines);
  Alcotest.(check string) "header" "job,series,labels,t,v" (List.hd lines);
  Alcotest.(check string) "row" "j,backlog,q=fifo,0.25,1500" (List.nth lines 1)

(* --- watchdog ------------------------------------------------------------- *)

let test_watchdog_invalid_interval () =
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Watchdog.create: interval must be positive") (fun () ->
      ignore (Watchdog.create ~interval:0.0 ()))

let test_watchdog_check_and_latch () =
  let w = Watchdog.create () in
  let broken = ref false in
  Watchdog.register w ~component:"test" ~invariant:"flag_clear" (fun () ->
      if !broken then Some "flag was set" else None);
  Watchdog.check_now w ~now:1.0;
  Alcotest.(check int) "one check ran" 1 (Watchdog.checks_run w);
  Alcotest.(check (option reject)) "no violation" None (Watchdog.violation w);
  broken := true;
  (match Watchdog.check_now w ~now:2.0 with
  | () -> Alcotest.fail "expected Violation"
  | exception Watchdog.Violation v ->
      Alcotest.(check string) "component" "test" v.Watchdog.component;
      Alcotest.(check string) "invariant" "flag_clear" v.Watchdog.invariant;
      Alcotest.(check (float 1e-9)) "at" 2.0 v.Watchdog.at;
      Alcotest.(check string) "message" "flag was set" v.Watchdog.message);
  (* Tripped watchdogs re-raise: a violation cannot be outrun. *)
  broken := false;
  (match Watchdog.check_now w ~now:3.0 with
  | () -> Alcotest.fail "expected re-raise"
  | exception Watchdog.Violation v ->
      Alcotest.(check (float 1e-9)) "original time kept" 2.0 v.Watchdog.at);
  match Watchdog.violation w with
  | Some v ->
      Alcotest.(check bool) "one_line has component" true
        (contains ~sub:"component=test" (Watchdog.one_line v));
      Alcotest.(check bool) "report has invariant" true
        (contains ~sub:"flag_clear" (Watchdog.report v))
  | None -> Alcotest.fail "violation not recorded"

let test_watchdog_watch_timeline () =
  let w = Watchdog.create () in
  let tl = Timeline.create () in
  Watchdog.watch_timeline w tl;
  let s = Timeline.series tl "x" in
  Timeline.record s ~time:2.0 ~value:1.0;
  Watchdog.check_now w ~now:2.0;
  Timeline.record s ~time:1.0 ~value:1.0;
  match Watchdog.check_now w ~now:3.0 with
  | () -> Alcotest.fail "expected Violation"
  | exception Watchdog.Violation v ->
      Alcotest.(check string) "component" "timeline" v.Watchdog.component;
      Alcotest.(check string) "invariant" "sample_ordering" v.Watchdog.invariant

(* --- flight recorder capacity (--flight-rec-cap) -------------------------- *)

let test_recorder_capacity_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Recorder.create: capacity must be positive") (fun () ->
      ignore (Recorder.create ~capacity:0 ()));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Recorder.create: capacity must be positive") (fun () ->
      ignore (Recorder.create ~capacity:(-5) ()));
  (* A custom capacity bounds retention exactly. *)
  let r = Recorder.create ~capacity:3 () in
  for i = 1 to 10 do
    Recorder.record r ~at:(float_of_int i) ~kind:"packet" ~point:"x" "d"
  done;
  Alcotest.(check int) "retained" 3 (Recorder.retained r);
  Alcotest.(check int) "evicted" 7 (Recorder.evicted r)

(* --- histogram quantiles (log-scale buckets) ------------------------------ *)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "x" in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Metrics.quantile h 0.5);
  (* A single observation of 1.0 lands in the [1, 2) bucket: the median
     interpolates to the bucket midpoint, q=0/q=1 to its edges. *)
  Metrics.observe h 1.0;
  Alcotest.(check (float 1e-9)) "q0 at lower edge" 1.0 (Metrics.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "median at midpoint" 1.5 (Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "q1 at upper edge" 2.0 (Metrics.quantile h 1.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Metrics.quantile: q must be within [0,1]") (fun () ->
      ignore (Metrics.quantile h 1.5))

let test_histogram_quantile_bucket_boundaries () =
  (* Exact powers of two sit on bucket boundaries; each must fall in
     [2^k, 2^(k+1)), never the bucket below. *)
  List.iter
    (fun v ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "x" in
      Metrics.observe h v;
      let p50 = Metrics.quantile h 0.5 in
      Alcotest.(check bool)
        (Printf.sprintf "p50 of {%g} in [%g, %g)" v v (2.0 *. v))
        true
        (p50 >= v && p50 < 2.0 *. v))
    [ 0.25; 0.5; 1.0; 2.0; 4.0; 1024.0 ];
  (* Zero observations carry their mass at 0. *)
  let m = Metrics.create () in
  let h = Metrics.histogram m "x" in
  Metrics.observe h 0.0;
  Metrics.observe h 0.0;
  Metrics.observe h 0.0;
  Metrics.observe h 8.0;
  Alcotest.(check (float 1e-9)) "p50 dominated by zeros" 0.0 (Metrics.quantile h 0.5);
  Alcotest.(check bool) "p99 in the populated bucket" true (Metrics.quantile h 0.99 >= 8.0)

let test_histogram_ndjson_has_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "sojourn_seconds" in
  Metrics.observe h 1.0;
  let out = Metrics.to_ndjson m in
  Alcotest.(check bool) "p50" true (contains ~sub:"\"p50\":1.5" out);
  Alcotest.(check bool) "p95" true (contains ~sub:"\"p95\":" out);
  Alcotest.(check bool) "p99" true (contains ~sub:"\"p99\":" out)

(* --- profiler speedup ----------------------------------------------------- *)

let test_profiler_sim_speedup () =
  (* Unit-level: 5 simulated seconds over 0.5 busy seconds is a 10x
     speedup. *)
  let p = Profile.create () in
  Profile.record p ~comp:"link" ~seconds:0.5;
  Profile.note_sim_time p 5.0;
  Profile.note_sim_time p 3.0;
  (* non-monotone input ignored *)
  Alcotest.(check (float 1e-9)) "sim seconds" 5.0 (Profile.sim_s p);
  Alcotest.(check (float 1e-9)) "speedup" 10.0 (Profile.sim_speedup p);
  Alcotest.(check bool) "json sim_s" true (contains ~sub:"\"sim_s\": 5.0" (Profile.to_json p));
  Alcotest.(check bool) "json speedup" true
    (contains ~sub:"\"sim_speedup\": 10.0" (Profile.to_json p));
  Alcotest.(check bool) "summary speedup" true
    (contains ~sub:"sim-s" (Profile.summary p));
  (* And via the engine: a run advances the profile's sim clock. *)
  let p2 = Profile.create () in
  let sim = Sim.create ~profile:p2 () in
  ignore (Sim.schedule sim ~delay:5.0 (fun () -> ()));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "engine-fed sim seconds" 5.0 (Profile.sim_s p2)

(* --- engine drivers ------------------------------------------------------- *)

let test_engine_samples_probes () =
  let tl = Timeline.create ~interval:0.5 () in
  Scope.with_scope
    (Scope.v ~timeline:tl ())
    (fun () ->
      let sim = Sim.create () in
      let n = ref 0 in
      Sim.add_timeline_probe sim "counter" (fun () ->
          incr n;
          float_of_int !n);
      ignore (Sim.schedule sim ~delay:3.0 (fun () -> ()));
      Sim.run sim);
  match Timeline.all_series tl with
  | [ s ] ->
      Alcotest.(check string) "name" "counter" (Timeline.name s);
      Alcotest.(check bool) "sim tag" true
        (List.mem_assoc "sim" (Timeline.labels s));
      (* Samples at 0.5, 1.0, ..., 3.0 (the driver stops once only
         driver events remain in the heap). *)
      Alcotest.(check int) "six samples" 6 (Timeline.length s);
      let t0, _ = (Timeline.points s).(0) in
      Alcotest.(check (float 1e-9)) "first at interval" 0.5 t0
  | l -> Alcotest.fail (Printf.sprintf "expected 1 series, got %d" (List.length l))

let test_engine_drivers_terminate () =
  (* Timeline + watchdog drivers must not keep each other (or an
     otherwise-finished run) alive. *)
  let tl = Timeline.create ~interval:0.1 () in
  let w = Watchdog.create () in
  Scope.with_scope
    (Scope.v ~timeline:tl ~watchdog:w ())
    (fun () ->
      let sim = Sim.create () in
      ignore (Sim.schedule sim ~delay:1.0 (fun () -> ()));
      Sim.run sim;
      Alcotest.(check bool) "clock near the last real event" true (Sim.now sim <= 1.5));
  Alcotest.(check bool) "watchdog swept" true (Watchdog.checks_run w >= 0)

(* --- end-to-end: instrumented scenario ------------------------------------ *)

let congested_scenario seed =
  Scenario.make ~name:"tl-e2e" ~rate_bps:(Ccsim_util.Units.mbps 5.0) ~delay_s:0.01
    ~qdisc:(Scenario.Fifo { limit_bytes = Some 15_000 })
    ~duration:8.0 ~warmup:1.0 ~seed
    [ Scenario.flow ~cca:Scenario.Cubic "a"; Scenario.flow ~cca:Scenario.Cubic "b" ]

let test_e2e_timeline_series () =
  let tl = Timeline.create () in
  let results =
    Scope.with_scope
      (Scope.v ~timeline:tl ())
      (fun () -> Scenario.run (congested_scenario 42))
  in
  Alcotest.(check bool) "scenario saw drops" true (results.Results.bottleneck_drops > 0);
  let names = List.map Timeline.name (Timeline.all_series tl) in
  List.iter
    (fun n -> Alcotest.(check bool) ("series " ^ n) true (List.mem n names))
    [
      "flow_goodput_bps";
      "flow_cwnd_bytes";
      "flow_srtt_s";
      "flow_inflight_bytes";
      "queue_backlog_bytes";
      "queue_drops_total";
    ];
  (* Every series is tagged with the scenario and carries samples. *)
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        ("scenario tag on " ^ Timeline.name s)
        (Some "tl-e2e")
        (List.assoc_opt "scenario" (Timeline.labels s));
      Alcotest.(check bool) "sampled" true (Timeline.length s > 0))
    (Timeline.all_series tl)

let test_e2e_watchdog_passes () =
  let w = Watchdog.create () in
  let tl = Timeline.create () in
  Watchdog.watch_timeline w tl;
  let results =
    Scope.with_scope
      (Scope.v ~timeline:tl ~watchdog:w ())
      (fun () -> Scenario.run (congested_scenario 42))
  in
  (* A congested run (drops, retransmits) passes every conservation
     invariant, and the checks demonstrably ran. *)
  Alcotest.(check bool) "drops" true (results.Results.bottleneck_drops > 0);
  Alcotest.(check bool) "checks registered" true (Watchdog.checks w >= 5);
  Alcotest.(check bool) "sweeps happened" true (Watchdog.checks_run w > Watchdog.checks w);
  Alcotest.(check (option reject)) "no violation" None (Watchdog.violation w)

let test_e2e_fault_injection () =
  (* Corrupt a link's qdisc counter mid-run: the conservation check must
     trip and name the qdisc. *)
  let w = Watchdog.create () in
  let run () =
    Scope.with_scope
      (Scope.v ~watchdog:w ())
      (fun () ->
        let sim = Sim.create () in
        let link =
          Net.Link.create sim ~rate_bps:80_000.0 ~delay_s:0.001 ~sink:(fun _ -> ()) ()
        in
        for i = 0 to 19 do
          ignore
            (Sim.schedule sim ~delay:(0.1 *. float_of_int i) (fun () ->
                 Net.Link.send link
                   (Net.Packet.data ~flow:1 ~seq:i ~payload_bytes:1000
                      ~sent_at:(Sim.now sim) ())))
        done;
        ignore
          (Sim.schedule sim ~delay:1.0 (fun () ->
               let st = (Net.Link.qdisc link).Net.Qdisc.stats in
               st.Net.Qdisc.enqueued <- st.Net.Qdisc.enqueued + 7));
        Sim.run sim)
  in
  match run () with
  | () -> Alcotest.fail "corruption went undetected"
  | exception Watchdog.Violation v ->
      Alcotest.(check string) "component" "link/qdisc:fifo" v.Watchdog.component;
      Alcotest.(check string) "invariant" "packet_conservation" v.Watchdog.invariant;
      Alcotest.(check bool) "after the corruption" true (v.Watchdog.at >= 1.0)

let test_e2e_instrumentation_identical () =
  (* PR 2's guarantee extended: timeline + watchdog instrumentation must
     not change any result. *)
  let plain = Scenario.run (congested_scenario 7) in
  let w = Watchdog.create () in
  let tl = Timeline.create () in
  Watchdog.watch_timeline w tl;
  let instrumented =
    Scope.with_scope
      (Scope.v ~timeline:tl ~watchdog:w ())
      (fun () -> Scenario.run (congested_scenario 7))
  in
  Alcotest.(check int) "drops identical" plain.Results.bottleneck_drops
    instrumented.Results.bottleneck_drops;
  Alcotest.(check (float 1e-9)) "jain identical" plain.Results.jain_index
    instrumented.Results.jain_index;
  List.iter2
    (fun (a : Results.flow_result) (b : Results.flow_result) ->
      Alcotest.(check (float 1e-6)) ("goodput " ^ a.label) a.goodput_bps b.goodput_bps;
      Alcotest.(check int) ("acked " ^ a.label) a.bytes_acked b.bytes_acked)
    plain.Results.flows instrumented.Results.flows

(* --- chrome trace export -------------------------------------------------- *)

let test_chrome_trace_structure () =
  let tl = Timeline.create () in
  let r = Recorder.create () in
  ignore
    (Scope.with_scope
       (Scope.v ~timeline:tl ~recorder:r ())
       (fun () -> Scenario.run (congested_scenario 42)));
  let trace = Obs.Chrome_trace.to_string [ ("tl-e2e", Some tl, Some r, None) ] in
  match Obs.Json.parse trace with
  | Obs.Json.Arr events ->
      Alcotest.(check bool) "non-empty" true (events <> []);
      let last_ts : (string, float) Hashtbl.t = Hashtbl.create 64 in
      let counters = ref 0 and instants = ref 0 in
      List.iter
        (fun ev ->
          match ev with
          | Obs.Json.Obj fields ->
              let str k =
                match List.assoc_opt k fields with Some (Obs.Json.Str s) -> Some s | _ -> None
              in
              let num k =
                match List.assoc_opt k fields with Some (Obs.Json.Num v) -> Some v | _ -> None
              in
              let ph =
                match str "ph" with Some p -> p | None -> Alcotest.fail "event without ph"
              in
              Alcotest.(check bool) "pid present" true (num "pid" <> None);
              if ph <> "M" then
                Alcotest.(check bool) "ts present" true (num "ts" <> None);
              if ph = "C" then begin
                incr counters;
                let name = Option.get (str "name") in
                let ts = Option.get (num "ts") in
                (match Hashtbl.find_opt last_ts name with
                | Some prev ->
                    Alcotest.(check bool)
                      (Printf.sprintf "monotone ts on %s" name)
                      true (ts >= prev)
                | None -> ());
                Hashtbl.replace last_ts name ts
              end
              else if ph = "i" then incr instants
          | _ -> Alcotest.fail "event is not an object")
        events;
      Alcotest.(check bool) "counter events" true (!counters > 0);
      Alcotest.(check bool) "instant events" true (!instants > 0)
  | _ -> Alcotest.fail "trace is not a JSON array"

(* Golden trace over hand-built instruments: pins the exact field order
   of every event class (counter, instant, span phases, process span,
   metadata) and the global stable sort on (ts, pid, tid). Any exporter
   change that reshapes the document must update this string. *)
let test_chrome_trace_golden () =
  let tl = Timeline.create () in
  let s = Timeline.series tl ~labels:[ ("flow", "a") ] "goodput" in
  Timeline.record s ~time:1.0 ~value:2.0;
  Timeline.record s ~time:3.0 ~value:4.0;
  let r = Recorder.create () in
  Recorder.record r ~at:2.0 ~kind:"qdisc" ~point:"bottleneck" ~fields:[ ("uid", "5") ]
    "drop";
  let sp = Obs.Span.create ~sample:1 () in
  Obs.Span.note_enqueue sp ~hop:"bottleneck" ~at:1.5 ~uid:0 ~flow:1 ~seq:2 ~bytes:1500
    ~kind:"data";
  Obs.Span.note_dequeue sp ~hop:"bottleneck" ~at:1.75 ~uid:0;
  Obs.Span.note_tx sp ~hop:"bottleneck" ~at:2.0 ~uid:0;
  Obs.Span.note_delivered sp ~hop:"bottleneck" ~at:2.5 ~uid:0;
  let trace = Obs.Chrome_trace.to_string [ ("job", Some tl, Some r, Some sp) ] in
  let expected =
    String.concat ",\n"
      [
        "[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"job\"}}";
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"hop: bottleneck\"}}";
        "{\"name\":\"job\",\"ph\":\"X\",\"ts\":1000000.000,\"dur\":2000000.000,\"pid\":1,\"tid\":0}";
        "{\"name\":\"goodput{flow=a}\",\"ph\":\"C\",\"ts\":1000000.000,\"pid\":1,\"args\":{\"value\":2}}";
        "{\"name\":\"queue\",\"ph\":\"X\",\"ts\":1500000.000,\"dur\":250000.000,\"pid\":1,\"tid\":2,\"args\":{\"hop\":\"bottleneck\",\"uid\":0,\"flow\":1,\"seq\":2,\"kind\":\"data\",\"outcome\":\"delivered\"}}";
        "{\"name\":\"serialize\",\"ph\":\"X\",\"ts\":1750000.000,\"dur\":250000.000,\"pid\":1,\"tid\":2,\"args\":{\"hop\":\"bottleneck\",\"uid\":0,\"flow\":1,\"seq\":2,\"kind\":\"data\",\"outcome\":\"delivered\"}}";
        "{\"name\":\"qdisc:drop\",\"ph\":\"i\",\"ts\":2000000.000,\"pid\":1,\"tid\":1,\"s\":\"p\",\"args\":{\"point\":\"bottleneck\",\"severity\":\"info\",\"uid\":\"5\"}}";
        "{\"name\":\"propagate\",\"ph\":\"X\",\"ts\":2000000.000,\"dur\":500000.000,\"pid\":1,\"tid\":2,\"args\":{\"hop\":\"bottleneck\",\"uid\":0,\"flow\":1,\"seq\":2,\"kind\":\"data\",\"outcome\":\"delivered\"}}";
        "{\"name\":\"goodput{flow=a}\",\"ph\":\"C\",\"ts\":3000000.000,\"pid\":1,\"args\":{\"value\":4}}\n]\n";
      ]
  in
  Alcotest.(check string) "golden trace" expected trace

let test_spans_e2e () =
  (* A congested scenario with every packet sampled: spans cover every
     hop, completed spans decompose, and arming spans does not change
     the scenario's results. *)
  let plain = Scenario.run (congested_scenario 11) in
  let sp = Obs.Span.create ~sample:1 () in
  let instrumented =
    Scope.with_scope
      (Scope.v ~span:sp ())
      (fun () -> Scenario.run (congested_scenario 11))
  in
  Alcotest.(check int) "drops identical" plain.Results.bottleneck_drops
    instrumented.Results.bottleneck_drops;
  Alcotest.(check (float 1e-9)) "jain identical" plain.Results.jain_index
    instrumented.Results.jain_index;
  Alcotest.(check bool) "spans recorded" true (Obs.Span.completed_count sp > 0);
  Alcotest.(check int) "all records closed" 0 (Obs.Span.open_count sp);
  let records = Obs.Span.completed sp in
  let hops =
    List.sort_uniq compare (List.map (fun (r : Obs.Span.record) -> r.Obs.Span.hop) records)
  in
  Alcotest.(check bool) "bottleneck hop covered" true (List.mem "bottleneck" hops);
  Alcotest.(check bool) "edge hops covered" true (List.mem "edge:0" hops);
  (* The scenario dropped packets, so some spans must be Dropped; and
     complete spans must have non-negative phases. *)
  let dropped =
    List.exists
      (fun (r : Obs.Span.record) ->
        Obs.Span.outcome_to_string r.Obs.Span.outcome = "dropped")
      records
  in
  Alcotest.(check bool) "drop spans present" true dropped;
  List.iter
    (fun (r : Obs.Span.record) ->
      if Obs.Span.complete r then begin
        let nonneg = function Some d -> d >= 0.0 | None -> false in
        Alcotest.(check bool) "queue phase" true (nonneg (Obs.Span.queue_delay r));
        Alcotest.(check bool) "serialize phase" true
          (nonneg (Obs.Span.serialize_delay r));
        Alcotest.(check bool) "propagate phase" true
          (nonneg (Obs.Span.propagate_delay r))
      end)
    records

(* --- offline reproduction ------------------------------------------------- *)

let test_offline_reproduces_fig3 () =
  let duration = 20.0 in
  let tl = Timeline.create () in
  let rows =
    Scope.with_scope
      (Scope.v ~timeline:tl ())
      (fun () -> Ccsim_core.Fig3.run ~duration ~seed:42 ())
  in
  let series =
    Offline.filter (Offline.of_string (Timeline.to_ndjson tl)) ~name:Offline.elasticity_series_name
  in
  Alcotest.(check int) "five elasticity series" 5 (List.length series);
  List.iter
    (fun (row : Ccsim_core.Fig3.row) ->
      let s =
        List.find
          (fun (s : Offline.series) ->
            List.assoc_opt "scenario" s.Offline.labels = Some ("fig3/" ^ row.traffic))
          series
      in
      let off = Offline.elasticity_of ~warmup:10.0 ~hi:duration s in
      Alcotest.(check bool)
        ("p90 exact: " ^ row.traffic)
        true
        (Float.equal off.Offline.p90_elasticity row.p90_elasticity);
      Alcotest.(check bool)
        ("verdict: " ^ row.traffic)
        row.classified_elastic off.Offline.classified_elastic)
    rows

let test_explain_agrees_with_fig3 () =
  (* The `ccsim explain` path end to end: run fig3 under a timeline
     scope, round-trip the series through NDJSON, and check the offline
     per-flow diagnosis names the same cross-traffic verdict as the
     online Nimbus detector for every flow of every scenario. *)
  let duration = 20.0 in
  let tl = Timeline.create () in
  let rows =
    Scope.with_scope
      (Scope.v ~timeline:tl ())
      (fun () -> Ccsim_core.Fig3.run ~duration ~seed:42 ())
  in
  let series = Offline.of_string (Timeline.to_ndjson tl) in
  let explained = Offline.explain ~warmup:10.0 ~hi:duration series in
  Alcotest.(check bool) "non-empty diagnosis" true (explained <> []);
  List.iter
    (fun (row : Ccsim_core.Fig3.row) ->
      let scenario = "fig3/" ^ row.traffic in
      let flows =
        List.filter (fun (x : Offline.explain_row) -> x.Offline.ex_scenario = scenario)
          explained
      in
      Alcotest.(check bool) (scenario ^ " has flows") true (flows <> []);
      let expected =
        Some (if row.classified_elastic then "elastic" else "inelastic")
      in
      List.iter
        (fun (x : Offline.explain_row) ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s/%s verdict" scenario x.Offline.ex_flow)
            expected x.Offline.ex_verdict)
        flows;
      (* The probe is a TCP flow: it must carry limit attribution and
         contended time over the whole connection. *)
      match
        List.find_opt (fun (x : Offline.explain_row) -> x.Offline.ex_flow = "probe") flows
      with
      | None -> Alcotest.fail (scenario ^ ": no probe flow in diagnosis")
      | Some probe ->
          Alcotest.(check bool) (scenario ^ " probe has a dominant limit") true
            (probe.Offline.ex_dominant <> "-");
          Alcotest.(check bool) (scenario ^ " probe contended") true
            (probe.Offline.ex_contended_s > 0.0))
    rows;
  (* The rendered table carries one row per flow. *)
  let rendered = Offline.render_explain ~warmup:10.0 ~hi:duration series in
  Alcotest.(check bool) "rendered table mentions the probe" true
    (contains ~sub:"| probe" rendered)

let test_offline_reproduces_fig2 () =
  let tl = Timeline.create () in
  let out =
    Scope.with_scope
      (Scope.v ~timeline:tl ())
      (fun () -> Ccsim_core.Fig2.run ~n:300 ~seed:42 ())
  in
  let report = out.Ccsim_core.Fig2.report in
  let series =
    Offline.filter (Offline.of_string (Timeline.to_ndjson tl)) ~name:Offline.ndt_series_name
  in
  Alcotest.(check int) "one series per candidate"
    report.M.Mlab_analysis.n_candidates (List.length series);
  let consistent =
    List.length
      (List.filter
         (fun s -> (Offline.changepoint_of s).Offline.contention_consistent)
         series)
  in
  Alcotest.(check int) "contention-consistent verdicts match"
    report.M.Mlab_analysis.n_contention_consistent consistent

(* --- watchdog coverage: every experiment ---------------------------------- *)

(* Reduced parameters: just past each experiment's warmup so steady-state
   windows are non-empty while the sweep stays fast. *)
let reduced_params (e : E.t) =
  match e.kind with
  | E.Sized _ -> (None, Some 200)
  | E.Timed _ ->
      let d =
        match e.id with
        | "e2" | "e3" | "e4" | "e7" -> 7.0
        | "e5" -> 17.0
        | "e6" -> 24.0
        | "x3" -> 8.0
        | "x4" -> 27.0
        | "a4" -> 17.0
        | _ -> 12.0
      in
      (Some d, None)

let test_watchdog_all_experiments () =
  List.iter
    (fun (e : E.t) ->
      let duration, n = reduced_params e in
      let w = Watchdog.create () in
      let tl = Timeline.create () in
      Watchdog.watch_timeline w tl;
      let out =
        Scope.with_scope
          (Scope.v ~timeline:tl ~watchdog:w ())
          (fun () -> e.render ?duration ?n ~seed:42 ())
      in
      Alcotest.(check bool) (e.id ^ " rendered") true (String.length out > 0);
      match Watchdog.violation w with
      | None -> ()
      | Some v -> Alcotest.fail (e.id ^ ": " ^ Watchdog.one_line v))
    E.all

let suite =
  [
    Alcotest.test_case "timeline: record and points" `Quick test_timeline_record_points;
    Alcotest.test_case "timeline: invalid arguments" `Quick test_timeline_invalid_args;
    Alcotest.test_case "timeline: decimation bounds memory" `Quick test_timeline_decimation;
    Alcotest.test_case "timeline: ordering violation latched" `Quick
      test_timeline_ordering_latch;
    Alcotest.test_case "timeline: ndjson round-trips exactly" `Quick
      test_timeline_ndjson_roundtrip;
    Alcotest.test_case "timeline: csv export" `Quick test_timeline_csv;
    Alcotest.test_case "watchdog: invalid interval" `Quick test_watchdog_invalid_interval;
    Alcotest.test_case "watchdog: check, violation, latch" `Quick
      test_watchdog_check_and_latch;
    Alcotest.test_case "watchdog: watches timeline ordering" `Quick
      test_watchdog_watch_timeline;
    Alcotest.test_case "recorder: capacity flag validation" `Quick
      test_recorder_capacity_validation;
    Alcotest.test_case "metrics: histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "metrics: quantiles at bucket boundaries" `Quick
      test_histogram_quantile_bucket_boundaries;
    Alcotest.test_case "metrics: ndjson carries p50/p95/p99" `Quick
      test_histogram_ndjson_has_quantiles;
    Alcotest.test_case "profiler: sim-seconds speedup" `Quick test_profiler_sim_speedup;
    Alcotest.test_case "engine: timeline driver samples probes" `Quick
      test_engine_samples_probes;
    Alcotest.test_case "engine: drivers terminate idle runs" `Quick
      test_engine_drivers_terminate;
    Alcotest.test_case "e2e: scenario populates timeline series" `Slow
      test_e2e_timeline_series;
    Alcotest.test_case "e2e: watchdog passes a congested run" `Slow test_e2e_watchdog_passes;
    Alcotest.test_case "e2e: corrupted counter trips conservation" `Quick
      test_e2e_fault_injection;
    Alcotest.test_case "e2e: timeline+watchdog do not change results" `Slow
      test_e2e_instrumentation_identical;
    Alcotest.test_case "chrome trace: structurally valid" `Slow test_chrome_trace_structure;
    Alcotest.test_case "chrome trace: golden field order and sort" `Quick
      test_chrome_trace_golden;
    Alcotest.test_case "spans: e2e coverage, results unchanged" `Slow test_spans_e2e;
    Alcotest.test_case "offline: reproduces fig3 verdicts" `Slow test_offline_reproduces_fig3;
    Alcotest.test_case "offline: explain agrees with fig3" `Slow
      test_explain_agrees_with_fig3;
    Alcotest.test_case "offline: reproduces fig2 verdicts" `Slow test_offline_reproduces_fig2;
    Alcotest.test_case "watchdog: all experiments pass --check" `Slow
      test_watchdog_all_experiments;
  ]
