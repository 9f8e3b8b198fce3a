(* Observability subsystem: metrics registry, flight recorder, ambient
   scope, engine profiler, and their end-to-end integration with
   scenario runs. *)

module Obs = Ccsim_obs
module Metrics = Obs.Metrics
module Recorder = Obs.Recorder
module Profile = Obs.Profile
module Scope = Obs.Scope
module Sim = Ccsim_engine.Sim
module Scenario = Ccsim_core.Scenario
module Results = Ccsim_core.Results

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_float0 = Alcotest.(check (float 0.0))

(* --- metrics registry ---------------------------------------------------- *)

let test_counter_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "events_total" in
  Metrics.inc c;
  Metrics.add c 4;
  Alcotest.(check int) "count" 5 (Metrics.value c);
  (* Re-registration returns the same instrument. *)
  let c' = Metrics.counter m "events_total" in
  Metrics.inc c';
  Alcotest.(check int) "shared" 6 (Metrics.value c);
  Alcotest.(check int) "one instrument" 1 (Metrics.size m)

let test_labels_distinguish () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~labels:[ ("qdisc", "fifo") ] "drops" in
  let b = Metrics.counter m ~labels:[ ("qdisc", "codel") ] "drops" in
  Metrics.inc a;
  Alcotest.(check int) "b untouched" 0 (Metrics.value b);
  (* Label order is irrelevant. *)
  let a' =
    Metrics.counter m ~labels:[ ("x", "1"); ("qdisc", "fifo") ] "multi"
  in
  let a'' =
    Metrics.counter m ~labels:[ ("qdisc", "fifo"); ("x", "1") ] "multi"
  in
  Metrics.inc a';
  Metrics.inc a'';
  Alcotest.(check int) "order-insensitive" 2 (Metrics.value a')

let test_kind_mismatch_rejected () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics.gauge: \"x\" is registered as another kind") (fun () ->
      ignore (Metrics.gauge m "x"))

let test_gauge_and_histogram () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "depth" in
  Metrics.set g 3.5;
  Alcotest.(check (float 1e-9)) "gauge" 3.5 (Metrics.gauge_value g);
  let h = Metrics.histogram m "sojourn" in
  Metrics.observe h 0.001;
  Metrics.observe h 0.002;
  Metrics.observe h 0.0;
  (* zero bucket *)
  Alcotest.(check int) "observations" 3 (Metrics.observations h);
  Alcotest.(check (float 1e-9)) "sum" 0.003 (Metrics.sum h)

let test_histogram_buckets_monotone () =
  (* Upper bounds must be strictly increasing powers of two. *)
  let prev = ref 0.0 in
  for i = 0 to 63 do
    let ub = Metrics.bucket_upper_bound i in
    Alcotest.(check bool) "monotone" true (ub > !prev);
    prev := ub
  done

let test_metrics_ndjson () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~labels:[ ("qdisc", "fifo") ] "drops_total" in
  Metrics.add c 7;
  let h = Metrics.histogram m "sojourn_seconds" in
  Metrics.observe h 0.01;
  let out = Metrics.to_ndjson ~extra:[ ("job", "t1") ] m in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  let first = List.nth lines 0 in
  Alcotest.(check bool) "job tag" true
    (contains ~sub:"\"job\":\"t1\"" first);
  Alcotest.(check bool) "value" true
    (contains ~sub:"\"value\":7" first);
  Alcotest.(check bool) "labels" true
    (contains ~sub:"\"qdisc\":\"fifo\"" first);
  let second = List.nth lines 1 in
  Alcotest.(check bool) "histogram count" true
    (contains ~sub:"\"count\":1" second)

(* The histogram NDJSON shape is load-bearing: fluid-vs-packet
   agreement can be checked from exported metrics alone, so the line
   must carry count/sum/zero and the p50/p95/p99 quantiles in a stable
   shape. Guard the exact field sequence and the internal consistency
   (count = zero + bucket counts, quantiles monotone). *)
let test_histogram_ndjson_shape () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~labels:[ ("engine", "fluid") ] "rate_err" in
  Metrics.observe h 0.0;
  (* zero bucket *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 2.0; 4.0; 4.0; 8.0 ];
  let line = String.trim (Metrics.to_ndjson m) in
  (* Field sequence: histogram lines always carry these keys in this
     order, so downstream jq/awk pipelines can rely on them. *)
  let order =
    [
      "\"type\":\"histogram\"";
      "\"name\":\"rate_err\"";
      "\"labels\":";
      "\"count\":";
      "\"sum\":";
      "\"zero\":";
      "\"p50\":";
      "\"p95\":";
      "\"p99\":";
      "\"buckets\":[";
    ]
  in
  let idx_in s sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then Alcotest.failf "missing %s in %s" sub s
      else if String.sub s i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  let idx sub = idx_in line sub in
  ignore
    (List.fold_left
       (fun prev sub ->
         let i = idx sub in
         Alcotest.(check bool) (sub ^ " in order") true (i > prev);
         i)
       (-1) order);
  (* Numeric consistency, parsed back out of the line. *)
  let number_after key =
    let i = idx (Printf.sprintf "\"%s\":" key) + String.length key + 3 in
    let j = ref i in
    while
      !j < String.length line
      && (match line.[!j] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false)
    do
      incr j
    done;
    float_of_string (String.sub line i (!j - i))
  in
  Alcotest.(check (float 1e-9)) "count" 7.0 (number_after "count");
  Alcotest.(check (float 1e-9)) "sum" 19.5 (number_after "sum");
  Alcotest.(check (float 1e-9)) "zero" 1.0 (number_after "zero");
  let p50 = number_after "p50" and p95 = number_after "p95" and p99 = number_after "p99" in
  Alcotest.(check bool) "quantiles monotone" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "p50 within observed range" true (p50 >= 0.0 && p50 <= 8.0);
  (* count = zero + sum of bucket counts: parse the buckets array. *)
  let bstart = idx "\"buckets\":[" + String.length "\"buckets\":[" in
  let bend = String.index_from line bstart ']' in
  let buckets = String.sub line bstart (bend - bstart) in
  let bucket_total =
    String.split_on_char '{' buckets
    |> List.filter (fun entry -> contains ~sub:"\"count\":" entry)
    |> List.fold_left
         (fun acc entry ->
           let k = idx_in entry "\"count\":" + String.length "\"count\":" in
           let j = ref k in
           while
             !j < String.length entry
             && (match entry.[!j] with '0' .. '9' -> true | _ -> false)
           do
             incr j
           done;
           acc + int_of_string (String.sub entry k (!j - k)))
         0
  in
  Alcotest.(check bool) "several buckets populated" true (bucket_total >= 1);
  Alcotest.(check int) "count = zero + bucket counts" 7 (1 + bucket_total)

(* --- flight recorder ------------------------------------------------------ *)

let test_recorder_bounded () =
  let r = Recorder.create ~capacity:10 () in
  for i = 1 to 25 do
    Recorder.record r ~at:(float_of_int i) ~kind:"packet" ~point:"link" "delivered"
  done;
  Alcotest.(check int) "count" 25 (Recorder.count r);
  Alcotest.(check int) "retained" 10 (Recorder.retained r);
  Alcotest.(check int) "evicted" 15 (Recorder.evicted r);
  match Recorder.events r with
  | first :: _ -> Alcotest.(check (float 1e-9)) "oldest retained is #16" 16.0 first.Recorder.at
  | [] -> Alcotest.fail "no events retained"

let test_recorder_severity_threshold () =
  let r = Recorder.create ~level:Recorder.Warn () in
  Recorder.record r ~at:0.0 ~severity:Recorder.Debug ~kind:"packet" ~point:"x" "d";
  Recorder.record r ~at:1.0 ~severity:Recorder.Warn ~kind:"qdisc" ~point:"x" "w";
  Recorder.record r ~at:2.0 ~severity:Recorder.Error ~kind:"app" ~point:"x" "e";
  Alcotest.(check int) "below level discarded" 2 (Recorder.count r);
  Alcotest.(check int) "by_kind" 1 (List.length (Recorder.by_kind r "qdisc"))

let test_recorder_exports () =
  let r = Recorder.create () in
  Recorder.record r ~at:1.5 ~severity:Recorder.Warn ~kind:"qdisc" ~point:"fifo"
    ~fields:[ ("flow", "3"); ("bytes", "1500") ]
    "drop";
  let nd = Recorder.to_ndjson ~extra:[ ("job", "j") ] r in
  Alcotest.(check bool) "class key" true
    (contains ~sub:"\"class\":\"qdisc\"" nd);
  Alcotest.(check bool) "fields" true
    (contains ~sub:"\"flow\":\"3\"" nd);
  let csv = Recorder.to_csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + row" 2 (List.length lines);
  Alcotest.(check string) "header" "at,severity,class,point,detail,fields" (List.hd lines);
  Alcotest.(check bool) "row fields" true
    (contains ~sub:"flow=3;bytes=1500" (List.nth lines 1))

(* --- scope ---------------------------------------------------------------- *)

let test_scope_ambient_restored () =
  Alcotest.(check bool) "default none" true (Scope.is_none (Scope.ambient ()));
  let m = Metrics.create () in
  let scope = Scope.v ~metrics:m () in
  Scope.with_scope scope (fun () ->
      Alcotest.(check bool) "inside" false (Scope.is_none (Scope.ambient ())));
  Alcotest.(check bool) "restored" true (Scope.is_none (Scope.ambient ()));
  (* Restored even when the body raises. *)
  (try Scope.with_scope scope (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true (Scope.is_none (Scope.ambient ()))

(* --- engine profiler ------------------------------------------------------ *)

let test_profiler_attribution () =
  let p = Profile.create () in
  let sim = Sim.create ~profile:p () in
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> Sim.set_component sim "link"));
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> Sim.set_component sim "tcp"));
  ignore (Sim.schedule sim ~delay:3.0 (fun () -> ()));
  Sim.run sim;
  Alcotest.(check int) "events" 3 (Profile.events_executed p);
  Alcotest.(check bool) "heap depth" true (Profile.max_heap_depth p >= 3);
  let comps = List.map (fun (c, _, _) -> c) (Profile.components p) in
  List.iter
    (fun c -> Alcotest.(check bool) ("component " ^ c) true (List.mem c comps))
    [ "link"; "tcp"; "other" ];
  let json = Profile.to_json p in
  Alcotest.(check bool) "json events" true
    (contains ~sub:"\"events_executed\": 3" json)

(* Rate accessors must be total: a fresh (or packet-free) profile
   reports 0, never a division by zero. *)
let test_profiler_zero_division_guards () =
  let p = Profile.create () in
  check_float0 "events_per_sec" 0.0 (Profile.events_per_sec p);
  check_float0 "sim_speedup" 0.0 (Profile.sim_speedup p);
  check_float0 "packets_per_sec" 0.0 (Profile.packets_per_sec p);
  check_float0 "minor_words_per_event" 0.0 (Profile.minor_words_per_event p);
  check_float0 "minor_words_per_packet" 0.0 (Profile.minor_words_per_packet p);
  (* Events with zero recorded seconds still divide safely. *)
  Profile.record p ~comp:"x" ~seconds:0.0;
  Profile.note_sim_time p 5.0;
  check_float0 "events_per_sec, zero busy" 0.0 (Profile.events_per_sec p);
  check_float0 "sim_speedup, zero busy" 0.0 (Profile.sim_speedup p)

let test_profiler_heap_depth_monotone () =
  let p = Profile.create () in
  Profile.note_heap_depth p 7;
  Profile.note_heap_depth p 3;
  Alcotest.(check int) "peak kept" 7 (Profile.max_heap_depth p);
  Profile.note_heap_depth p 11;
  Alcotest.(check int) "peak raised" 11 (Profile.max_heap_depth p)

let test_profiler_scheduled_cancelled () =
  let p = Profile.create () in
  Profile.note_scheduled p ~comp:"tcp";
  Profile.note_scheduled p ~comp:"tcp";
  Profile.note_scheduled p ~comp:"link";
  Profile.note_cancelled p ~comp:"tcp";
  Alcotest.(check int) "scheduled" 3 (Profile.events_scheduled p);
  Alcotest.(check int) "cancelled" 1 (Profile.events_cancelled p);
  let tcp = List.assoc "tcp" (Profile.component_stats p) in
  Alcotest.(check int) "tcp scheduled" 2 tcp.Profile.scheduled;
  Alcotest.(check int) "tcp cancelled" 1 tcp.Profile.cancelled

let test_profiler_packet_counters () =
  let p = Profile.create () in
  Profile.note_pkt_enqueued p;
  Profile.note_pkt_enqueued p;
  Profile.note_pkt_dequeued p;
  Profile.note_pkt_delivered p;
  Profile.note_pkt_dropped p;
  Alcotest.(check int) "enqueued" 2 (Profile.packets_enqueued p);
  Alcotest.(check int) "dequeued" 1 (Profile.packets_dequeued p);
  Alcotest.(check int) "delivered" 1 (Profile.packets_delivered p);
  Alcotest.(check int) "dropped" 1 (Profile.packets_dropped p);
  Profile.record p ~comp:"link" ~seconds:0.5;
  check_float0 "packets_per_sec" 2.0 (Profile.packets_per_sec p)

(* The sampling countdown takes a Gc delta every [gc_sample_every]
   charges; gc_flush closes the tail window so the totals cover every
   event. Allocation numbers are host-dependent, so only structure is
   asserted (window accounting, non-negative totals). *)
let test_profiler_gc_sampling () =
  let p = Profile.create () in
  let n = (3 * Profile.gc_sample_every) + 5 in
  for _ = 1 to n do
    (* Allocate a little so the windows have something to see. *)
    ignore (Sys.opaque_identity (Array.make 64 0.0));
    Profile.record p ~comp:"alloc" ~seconds:0.0
  done;
  Alcotest.(check int) "windows sampled" 3 (Profile.gc_samples p);
  Profile.gc_flush p;
  Alcotest.(check int) "flush closes the tail" 4 (Profile.gc_samples p);
  Profile.gc_flush p;
  Alcotest.(check int) "flush idempotent" 4 (Profile.gc_samples p);
  Alcotest.(check bool) "minor words seen" true (Profile.minor_words p > 0.0);
  Alcotest.(check bool) "per-event rate positive" true
    (Profile.minor_words_per_event p > 0.0);
  let alloc = List.assoc "alloc" (Profile.component_stats p) in
  Alcotest.(check bool) "attributed to the charging component" true
    (alloc.Profile.minor_words > 0.0)

(* Field order in the profile JSON is pinned: BENCH_engine.json and the
   runner-report consumers key on it (mirror of the histogram NDJSON
   shape test). *)
let test_profile_json_shape () =
  let p = Profile.create () in
  Profile.record p ~comp:"tcp" ~seconds:0.001;
  Profile.note_pkt_delivered p;
  Profile.gc_flush p;
  let json = Profile.to_json p in
  let order =
    [
      "\"events_executed\":";
      "\"events_scheduled\":";
      "\"events_cancelled\":";
      "\"busy_s\":";
      "\"events_per_sec\":";
      "\"sim_s\":";
      "\"sim_speedup\":";
      "\"max_heap_depth\":";
      "\"pkts_enqueued\":";
      "\"pkts_dequeued\":";
      "\"pkts_delivered\":";
      "\"pkts_dropped\":";
      "\"pkts_per_sec\":";
      "\"gc\": {";
      "\"samples\":";
      "\"minor_words\":";
      "\"promoted_words\":";
      "\"major_words\":";
      "\"compactions\":";
      "\"minor_words_per_event\":";
      "\"minor_words_per_packet\":";
      "\"components\": [";
      "\"component\": \"tcp\"";
      "\"events\":";
      "\"seconds\":";
      "\"scheduled\":";
      "\"cancelled\":";
    ]
  in
  let idx_in sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then Alcotest.failf "missing %s in %s" sub json
      else if String.sub json i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  let positions = List.map idx_in order in
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        if a >= b then Alcotest.fail "profile json fields out of order";
        ascending rest
    | _ -> ()
  in
  ascending positions

let test_profiler_from_ambient_scope () =
  let p = Profile.create () in
  Scope.with_scope
    (Scope.v ~profile:p ())
    (fun () ->
      let sim = Sim.create () in
      ignore (Sim.schedule sim ~delay:0.5 (fun () -> ()));
      Sim.run sim);
  Alcotest.(check int) "picked up ambient profile" 1 (Profile.events_executed p)

(* --- end-to-end: instrumented scenario run -------------------------------- *)

(* A congested bottleneck with a tiny FIFO, guaranteeing drops (and
   thus loss responses) within a short run. *)
let congested_scenario seed =
  Scenario.make ~name:"obs-e2e" ~rate_bps:(Ccsim_util.Units.mbps 5.0) ~delay_s:0.01
    ~qdisc:(Scenario.Fifo { limit_bytes = Some 15_000 })
    ~duration:8.0 ~warmup:1.0 ~seed
    [ Scenario.flow ~cca:Scenario.Cubic "a"; Scenario.flow ~cca:Scenario.Cubic "b" ]

let test_instrumented_scenario () =
  let m = Metrics.create () in
  let r = Recorder.create () in
  let p = Profile.create () in
  let results =
    Scope.with_scope
      (Scope.v ~metrics:m ~recorder:r ~profile:p ())
      (fun () -> Scenario.run (congested_scenario 42))
  in
  Alcotest.(check bool) "scenario saw drops" true (results.Results.bottleneck_drops > 0);
  (* Metrics: the qdisc drop counter matches reality. *)
  (match Metrics.find_counter m ~labels:[ ("qdisc", "fifo") ] "qdisc_dropped_total" with
  | Some c -> Alcotest.(check bool) "drop counter positive" true (Metrics.value c > 0)
  | None -> Alcotest.fail "qdisc_dropped_total not registered");
  (match Metrics.find_counter m ~labels:[ ("qdisc", "fifo") ] "qdisc_enqueued_total" with
  | Some c -> Alcotest.(check bool) "enqueue counter positive" true (Metrics.value c > 0)
  | None -> Alcotest.fail "qdisc_enqueued_total not registered");
  (match Metrics.find_counter m "link_tx_packets_total" with
  | Some c -> Alcotest.(check bool) "link tx positive" true (Metrics.value c > 0)
  | None -> Alcotest.fail "link_tx_packets_total not registered");
  Alcotest.(check bool) "ndjson non-empty" true (String.length (Metrics.to_ndjson m) > 0);
  (* Flight journal: the three headline classes are all present. *)
  Alcotest.(check bool) "packet events" true (Recorder.by_kind r "packet" <> []);
  Alcotest.(check bool) "qdisc drop events" true (Recorder.by_kind r "qdisc" <> []);
  Alcotest.(check bool) "cca decision events" true (Recorder.by_kind r "cca" <> []);
  (* Profiler: events executed, attributed beyond "other". *)
  Alcotest.(check bool) "events executed" true (Profile.events_executed p > 0);
  Alcotest.(check bool) "heap depth seen" true (Profile.max_heap_depth p > 0);
  let comps = List.map (fun (c, _, _) -> c) (Profile.components p) in
  Alcotest.(check bool) "tcp attributed" true (List.mem "tcp" comps);
  Alcotest.(check bool) "link attributed" true (List.mem "link" comps);
  (* Packet hot-path counters: a congested run delivers and drops. *)
  Alcotest.(check bool) "pkts delivered" true (Profile.packets_delivered p > 0);
  Alcotest.(check bool) "pkts dropped" true (Profile.packets_dropped p > 0);
  Alcotest.(check bool) "enqueued >= delivered" true
    (Profile.packets_enqueued p >= Profile.packets_delivered p);
  Alcotest.(check bool) "pkts/s positive" true (Profile.packets_per_sec p > 0.0);
  (* Scheduled events at least cover the executed ones. *)
  Alcotest.(check bool) "scheduled >= executed" true
    (Profile.events_scheduled p >= Profile.events_executed p);
  (* Allocation sampling closed its windows during Sim.run. *)
  Alcotest.(check bool) "gc windows sampled" true (Profile.gc_samples p > 0);
  Alcotest.(check bool) "minor words/event" true (Profile.minor_words_per_event p > 0.0);
  (* Heap-depth histogram: shared instrument in the ambient registry. *)
  (match Metrics.find_histogram m "engine_heap_depth" with
  | Some h -> Alcotest.(check bool) "heap histogram populated" true (Metrics.quantile h 0.99 > 0.0)
  | None -> Alcotest.fail "engine_heap_depth not registered")

let test_instrumentation_does_not_change_results () =
  let plain = Scenario.run (congested_scenario 7) in
  let instrumented =
    Scope.with_scope
      (Scope.v ~metrics:(Metrics.create ()) ~recorder:(Recorder.create ())
         ~profile:(Profile.create ()) ())
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

(* --- runner report embedding ---------------------------------------------- *)

let test_report_embeds_profile () =
  let job =
    Ccsim_runner.Job.make ~name:"j1" ~digest:"d1" (fun () -> "out\n")
  in
  let results = Ccsim_runner.Pool.run (Ccsim_runner.Pool.config ~jobs:1 ()) [ job ] in
  let tele = Ccsim_runner.Telemetry.make ~pool_jobs:1 ~total_wall_s:0.1 results in
  let p = Profile.create () in
  Profile.record p ~comp:"link" ~seconds:0.001;
  let json =
    Ccsim_runner.Telemetry.to_json ~profiles:[ ("j1", Profile.to_json p) ] tele
  in
  Alcotest.(check bool) "profile embedded" true
    (contains ~sub:"\"profile\": {" json);
  Alcotest.(check bool) "component embedded" true
    (contains ~sub:"\"component\": \"link\"" json);
  (* Unmatched job names embed nothing. *)
  let json' = Ccsim_runner.Telemetry.to_json ~profiles:[ ("other", "{}") ] tele in
  Alcotest.(check bool) "no stray profile" false
    (contains ~sub:"\"profile\"" json')

(* --- packet lifecycle spans ----------------------------------------------- *)

module Span = Obs.Span

let test_span_sampling () =
  let sp = Span.create ~sample:3 () in
  Alcotest.(check int) "sample" 3 (Span.sample sp);
  Alcotest.(check bool) "uid 0 sampled" true (Span.hit sp ~uid:0);
  Alcotest.(check bool) "uid 3 sampled" true (Span.hit sp ~uid:3);
  Alcotest.(check bool) "uid 1 not sampled" false (Span.hit sp ~uid:1);
  Alcotest.(check bool) "uid 2 not sampled" false (Span.hit sp ~uid:2);
  Alcotest.check_raises "sample must be >= 1"
    (Invalid_argument "Span.create: sample must be >= 1") (fun () ->
      ignore (Span.create ~sample:0 ()))

let test_span_lifecycle () =
  let sp = Span.create ~sample:1 () in
  Span.note_enqueue sp ~hop:"bottleneck" ~at:1.0 ~uid:0 ~flow:7 ~seq:3 ~bytes:1500
    ~kind:"data";
  Span.note_dequeue sp ~hop:"bottleneck" ~at:1.25 ~uid:0;
  Span.note_tx sp ~hop:"bottleneck" ~at:1.5 ~uid:0;
  Span.note_delivered sp ~hop:"bottleneck" ~at:2.0 ~uid:0;
  Alcotest.(check int) "one completed" 1 (Span.completed_count sp);
  Alcotest.(check int) "none open" 0 (Span.open_count sp);
  (match Span.completed sp with
  | [ r ] ->
      Alcotest.(check bool) "complete" true (Span.complete r);
      Alcotest.(check string) "outcome" "delivered" (Span.outcome_to_string r.Span.outcome);
      check_float0 "queue delay" 0.25 (Option.get (Span.queue_delay r));
      check_float0 "serialize delay" 0.25 (Option.get (Span.serialize_delay r));
      check_float0 "propagate delay" 0.5 (Option.get (Span.propagate_delay r));
      Alcotest.(check int) "flow" 7 r.Span.flow;
      Alcotest.(check string) "hop" "bottleneck" r.Span.hop
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length rs)));
  (* A duplicate delivery (fault-injected ghost) of a closed span is ignored. *)
  Span.note_delivered sp ~hop:"bottleneck" ~at:2.5 ~uid:0;
  Alcotest.(check int) "duplicate ignored" 1 (Span.completed_count sp)

let test_span_drops () =
  let sp = Span.create ~sample:1 () in
  (* Wire drop of an open record closes it as Dropped. *)
  Span.note_enqueue sp ~hop:"l" ~at:1.0 ~uid:0 ~flow:1 ~seq:0 ~bytes:100 ~kind:"data";
  Span.note_dropped sp ~hop:"l" ~at:1.5 ~uid:0 ~flow:1 ~seq:0 ~bytes:100 ~kind:"data";
  (* Tail drop with no open record synthesizes a zero-length span. *)
  Span.note_dropped sp ~hop:"l" ~at:2.0 ~uid:1 ~flow:1 ~seq:1 ~bytes:100 ~kind:"data";
  Alcotest.(check int) "both completed" 2 (Span.completed_count sp);
  Alcotest.(check int) "both started" 2 (Span.started sp);
  List.iter
    (fun (r : Span.record) ->
      Alcotest.(check string) "dropped" "dropped" (Span.outcome_to_string r.Span.outcome);
      Alcotest.(check bool) "not complete" false (Span.complete r);
      Alcotest.(check bool) "no propagate phase" true (Span.propagate_delay r = None))
    (Span.completed sp)

let test_span_seal_and_eviction () =
  let sp = Span.create ~capacity:2 ~sample:1 () in
  (* Two still-open records seal as Incomplete in (uid, hop) order. *)
  Span.note_enqueue sp ~hop:"b" ~at:1.0 ~uid:2 ~flow:1 ~seq:0 ~bytes:10 ~kind:"data";
  Span.note_enqueue sp ~hop:"a" ~at:1.0 ~uid:1 ~flow:1 ~seq:1 ~bytes:10 ~kind:"ack";
  Span.seal sp ~now:5.0;
  Alcotest.(check int) "sealed to completed" 2 (Span.completed_count sp);
  (match Span.completed sp with
  | [ r1; r2 ] ->
      Alcotest.(check int) "uid order" 1 r1.Span.uid;
      Alcotest.(check int) "uid order" 2 r2.Span.uid;
      Alcotest.(check string) "incomplete" "incomplete"
        (Span.outcome_to_string r1.Span.outcome)
  | _ -> Alcotest.fail "expected 2 sealed records");
  (* Capacity 2: a third completion evicts the oldest. *)
  Span.note_enqueue sp ~hop:"c" ~at:6.0 ~uid:3 ~flow:2 ~seq:0 ~bytes:10 ~kind:"data";
  Span.note_delivered sp ~hop:"c" ~at:6.5 ~uid:3;
  Alcotest.(check int) "capacity bound" 2 (Span.completed_count sp);
  Alcotest.(check int) "eviction counted" 1 (Span.evicted sp);
  Alcotest.(check int) "started counts everything" 3 (Span.started sp)

let test_span_journal () =
  let r = Recorder.create () in
  let sp = Span.create ~recorder:r ~sample:1 () in
  Span.note_enqueue sp ~hop:"bottleneck" ~at:1.0 ~uid:0 ~flow:4 ~seq:9 ~bytes:1500
    ~kind:"data";
  Span.note_dequeue sp ~hop:"bottleneck" ~at:1.25 ~uid:0;
  Span.note_tx sp ~hop:"bottleneck" ~at:1.5 ~uid:0;
  Span.note_delivered sp ~hop:"bottleneck" ~at:2.0 ~uid:0;
  match Recorder.by_kind r "span" with
  | [ e ] ->
      Alcotest.(check string) "point is hop" "bottleneck" e.Recorder.point;
      Alcotest.(check string) "detail is outcome" "delivered" e.Recorder.detail;
      Alcotest.(check (option string)) "uid field" (Some "0")
        (List.assoc_opt "uid" e.Recorder.fields);
      Alcotest.(check (option string)) "queue_s field" (Some "0.250000000")
        (List.assoc_opt "queue_s" e.Recorder.fields)
  | es -> Alcotest.fail (Printf.sprintf "expected 1 span event, got %d" (List.length es))

(* --- Json: the one reader, fuzzed -------------------------------------------------- *)

(* Inputs built from the characters the reader branches on: structure,
   quotes and backslashes, "\\u" followed by hex or non-hex letters, and
   the letters of literals and numbers. Most are malformed; the reader
   must say so with Parse_error, never with another exception. *)
let json_soup =
  let open QCheck.Gen in
  let one s = map (String.make 1) (oneofl (List.of_seq (String.to_seq s))) in
  let token =
    frequency
      [
        (6, one "{}[]:,\"\\ ");
        (3, return "\\u");
        (4, one "0123456789abcdefABCDEF");
        (3, one "gGuxzZntrlse-+./");
        (1, oneofl [ "true"; "null"; "1e5"; "-0.5"; "{\"k\":\"" ]);
      ]
  in
  map (String.concat "") (list_size (int_range 0 40) token)

let json_properties =
  let open QCheck in
  let module Json = Obs.Json in
  [
    Test.make ~name:"json: malformed input raises Parse_error, nothing else" ~count:5000
      (make ~print:(Printf.sprintf "%S") json_soup)
      (fun s -> match Json.parse s with _ -> true | exception Json.Parse_error _ -> true);
    Test.make ~name:"json: parse inverts str and obj_of_strings" ~count:1000
      (pair (string_of_size (Gen.int_range 0 64))
         (list_of_size (Gen.int_range 0 4) (pair small_string small_string)))
      (fun (s, kvs) ->
        Json.parse (Json.str s) = Json.Str s
        && Json.parse (Json.obj_of_strings kvs)
           = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs));
  ]

let suite =
  [
    Alcotest.test_case "metrics: counter basics" `Quick test_counter_basics;
    Alcotest.test_case "metrics: labels distinguish" `Quick test_labels_distinguish;
    Alcotest.test_case "metrics: kind mismatch rejected" `Quick test_kind_mismatch_rejected;
    Alcotest.test_case "metrics: gauge and histogram" `Quick test_gauge_and_histogram;
    Alcotest.test_case "metrics: histogram buckets monotone" `Quick
      test_histogram_buckets_monotone;
    Alcotest.test_case "metrics: ndjson export" `Quick test_metrics_ndjson;
    Alcotest.test_case "metrics: histogram ndjson shape stable" `Quick
      test_histogram_ndjson_shape;
    Alcotest.test_case "recorder: bounded memory" `Quick test_recorder_bounded;
    Alcotest.test_case "recorder: severity threshold" `Quick test_recorder_severity_threshold;
    Alcotest.test_case "recorder: ndjson and csv" `Quick test_recorder_exports;
    Alcotest.test_case "scope: ambient set and restored" `Quick test_scope_ambient_restored;
    Alcotest.test_case "profiler: per-component attribution" `Quick test_profiler_attribution;
    Alcotest.test_case "profiler: rate accessors guard zero division" `Quick
      test_profiler_zero_division_guards;
    Alcotest.test_case "profiler: heap depth is a monotone peak" `Quick
      test_profiler_heap_depth_monotone;
    Alcotest.test_case "profiler: scheduled/cancelled per component" `Quick
      test_profiler_scheduled_cancelled;
    Alcotest.test_case "profiler: packet counters" `Quick test_profiler_packet_counters;
    Alcotest.test_case "profiler: gc sampling windows" `Quick test_profiler_gc_sampling;
    Alcotest.test_case "profiler: json field order pinned" `Quick test_profile_json_shape;
    Alcotest.test_case "profiler: picked up from ambient scope" `Quick
      test_profiler_from_ambient_scope;
    Alcotest.test_case "e2e: instrumented scenario populates all three" `Slow
      test_instrumented_scenario;
    Alcotest.test_case "e2e: instrumentation does not change results" `Slow
      test_instrumentation_does_not_change_results;
    Alcotest.test_case "runner: report embeds profiles" `Quick test_report_embeds_profile;
    Alcotest.test_case "span: deterministic uid sampling" `Quick test_span_sampling;
    Alcotest.test_case "span: lifecycle phases decompose" `Quick test_span_lifecycle;
    Alcotest.test_case "span: wire and tail drops" `Quick test_span_drops;
    Alcotest.test_case "span: seal order and capacity eviction" `Quick
      test_span_seal_and_eviction;
    Alcotest.test_case "span: journals to the flight recorder" `Quick test_span_journal;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) json_properties
