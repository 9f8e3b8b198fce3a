module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module Cca = Ccsim_cca
module Tcp = Ccsim_tcp
module App = Ccsim_app
module Measure = Ccsim_measure
module U = Ccsim_util

type cca_spec =
  | Reno
  | Cubic
  | Bbr
  | Vegas
  | Copa
  | Ledbat
  | Aimd of { a : float; b : float }
  | Nimbus of { capacity_bps : float }

type app_spec =
  | Bulk
  | Cbr_tcp of { rate_bps : float }
  | Cbr_udp of { rate_bps : float }
  | Onoff of { rate_bps : float; mean_on : float; mean_off : float }
  | Video
  | Speedtest of { duration : float }

type flow_spec = {
  label : string;
  cca : cca_spec;
  app : app_spec;
  start : float;
  ingress : Net.Topology.ingress;
}

let flow ?(cca = Reno) ?(app = Bulk) ?(start = 0.0) ?(ingress = Net.Topology.No_ingress) label =
  { label; cca; app; start; ingress }

type qdisc_spec =
  | Fifo of { limit_bytes : int option }
  | Drr of { quantum_bytes : int option; limit_bytes : int option }

type short_flows_spec = {
  arrival_rate : float;
  mean_size_bytes : float;
  sf_stop : float option;
}

type rate_variation =
  | Steady
  | Ou_wander of { volatility : float }

type t = {
  name : string;
  rate_bps : float;
  delay_s : float;
  qdisc : qdisc_spec;
  flows : flow_spec list;
  short_flows : short_flows_spec option;
  rate_variation : rate_variation;
  duration : float;
  warmup : float;
  seed : int;
  monitor_interval : float;
}

let make ?(qdisc = Fifo { limit_bytes = None }) ?short_flows ?(rate_variation = Steady)
    ?(duration = 30.0) ?(warmup = 5.0) ?(seed = 42) ?(monitor_interval = 0.1) ~name ~rate_bps
    ~delay_s flows =
  if duration <= warmup then invalid_arg "Scenario.make: duration must exceed warmup";
  {
    name;
    rate_bps;
    delay_s;
    qdisc;
    flows;
    short_flows;
    rate_variation;
    duration;
    warmup;
    seed;
    monitor_interval;
  }

let build_qdisc = function
  | Fifo { limit_bytes } -> Net.Fifo.create ?limit_bytes ()
  | Drr { quantum_bytes; limit_bytes } -> Net.Drr.create ?quantum_bytes ?limit_bytes ()

let build_cca sim spec =
  match spec with
  | Reno -> (Cca.Reno.create (), None)
  | Cubic -> (Cca.Cubic.create (), None)
  | Bbr -> (Cca.Bbr.create (), None)
  | Vegas -> (Cca.Vegas.create (), None)
  | Copa -> (Cca.Copa.create (), None)
  | Ledbat -> (Cca.Ledbat.create (), None)
  | Aimd { a; b } -> (Cca.Aimd.create ~a ~b (), None)
  | Nimbus { capacity_bps } ->
      let cca, handle =
        Cca.Nimbus.create sim ~mode_switching:false ~known_capacity_bps:capacity_bps ()
      in
      (cca, Some handle)

(* Per-flow runtime state gathered while the simulation runs. *)
type live = {
  spec : flow_spec;
  flow_id : int;
  sender : Tcp.Sender.t option;
  receiver : Tcp.Receiver.t option;
  udp_sink : Tcp.Udp.Sink.t option;
  monitor : Measure.Telemetry.Flow_monitor.t option;
  nimbus : Cca.Nimbus.handle option;
  mutable video : App.Video.t option;
  mutable speedtest : App.Speedtest.t option;
  mutable received_at_window_start : int;
  mutable offered_at_window_start : int;
  mutable cbr : App.Cbr.t option;
  mutable onoff : App.Onoff.t option;
}

let run t =
  let sim = Sim.create () in
  (* Every timeline series this scenario's components register carries
     the scenario name, so multi-scenario jobs (fig3) stay separable. *)
  Sim.add_timeline_tags sim [ ("scenario", t.name) ];
  let rng = U.Rng.create t.seed in
  let qdisc = build_qdisc t.qdisc in
  let specs = Array.of_list t.flows in
  let ingress_of flow =
    if flow < Array.length specs then specs.(flow).ingress else Net.Topology.No_ingress
  in
  let topo =
    Net.Topology.dumbbell sim ~rate_bps:t.rate_bps ~delay_s:t.delay_s ~qdisc ~ingress:ingress_of ()
  in
  let queue_monitor = Measure.Telemetry.Queue_monitor.create sim ~qdisc () in
  (match t.rate_variation with
  | Steady -> ()
  | Ou_wander { volatility } ->
      ignore
        (Net.Rate_process.ornstein_uhlenbeck sim ~link:topo.bottleneck ~rng:(U.Rng.split rng)
           ~mean_bps:t.rate_bps ~volatility ()));
  (* An ambient armed fault plan (the CLI's --faults flag, or an
     experiment like c1) attaches an injector to the bottleneck. The
     injector seed is the plan's own, independent of the scenario seed,
     so the workload's draws are untouched by arming faults. *)
  let injector =
    match Ccsim_faults.Plan.armed () with
    | None -> None
    | Some { Ccsim_faults.Plan.plan; seed } ->
        Some (Ccsim_faults.Injector.attach sim ~link:topo.bottleneck ~plan ~seed ())
  in
  (* --- per-flow setup --- *)
  let setup_flow idx (spec : flow_spec) =
    let flow_id = idx in
    match spec.app with
    | Cbr_udp { rate_bps } ->
        let source = Tcp.Udp.Source.create sim ~flow:flow_id ~path:(topo.fwd_entry ~flow:flow_id) () in
        let sink = Tcp.Udp.Sink.create sim () in
        Net.Dispatch.register topo.fwd_dispatch ~flow:flow_id (Tcp.Udp.Sink.handle sink);
        let live =
          {
            spec;
            flow_id;
            sender = None;
            receiver = None;
            udp_sink = Some sink;
            monitor = None;
            nimbus = None;
            video = None;
            speedtest = None;
            received_at_window_start = 0;
            offered_at_window_start = 0;
            cbr = None;
            onoff = None;
          }
        in
        ignore
          (Sim.schedule_at sim ~time:spec.start (fun () ->
               live.cbr <- Some (App.Cbr.over_udp sim ~source ~rate_bps ())));
        live
    | Bulk | Cbr_tcp _ | Onoff _ | Video | Speedtest _ ->
        let cca, nimbus = build_cca sim spec.cca in
        let conn = Tcp.Connection.establish topo ~flow:flow_id ~cca () in
        let monitor =
          Measure.Telemetry.Flow_monitor.create sim ~sender:conn.sender ~label:spec.label
            ~interval:t.monitor_interval ()
        in
        let live =
          {
            spec;
            flow_id;
            sender = Some conn.sender;
            receiver = Some conn.receiver;
            udp_sink = None;
            monitor = Some monitor;
            nimbus;
            video = None;
            speedtest = None;
            received_at_window_start = 0;
            offered_at_window_start = 0;
            cbr = None;
            onoff = None;
          }
        in
        ignore
          (Sim.schedule_at sim ~time:spec.start (fun () ->
               match spec.app with
               | Bulk -> ignore (App.Bulk.start sim ~sender:conn.sender ())
               | Cbr_tcp { rate_bps } ->
                   live.cbr <- Some (App.Cbr.over_tcp sim ~sender:conn.sender ~rate_bps ())
               | Onoff { rate_bps; mean_on; mean_off } ->
                   live.onoff <-
                     Some
                       (App.Onoff.start sim ~sender:conn.sender ~rng:(U.Rng.split rng) ~rate_bps
                          ~mean_on ~mean_off ())
               | Video -> live.video <- Some (App.Video.start sim ~sender:conn.sender ())
               | Speedtest { duration } ->
                   live.speedtest <- Some (App.Speedtest.start sim ~sender:conn.sender ~duration ())
               | Cbr_udp _ -> assert false));
        live
  in
  let lives = List.mapi setup_flow t.flows in
  (* Per-flow bottleneck attribution: occupancy (serialization seconds)
     and drop shares, labeled like the Flow_monitor series so `ccsim
     explain` groups them per flow. No-ops without a timeline in scope. *)
  List.iter
    (fun live ->
      let labels = [ ("flow", live.spec.label) ] in
      let flow = live.flow_id in
      Sim.add_timeline_probe sim ~labels "flow_bneck_busy_s" (fun () ->
          Net.Link.flow_busy_seconds topo.bottleneck ~flow);
      Sim.add_timeline_probe sim ~labels "flow_bneck_drops" (fun () ->
          float_of_int (Net.Link.flow_drops topo.bottleneck ~flow)))
    lives;
  (* --- background short flows (ids from 1000) --- *)
  let short =
    match t.short_flows with
    | None -> None
    | Some s ->
        Some
          (App.Poisson_flows.start sim topo ~rng:(U.Rng.split rng) ~arrival_rate:s.arrival_rate
             ~mean_size_bytes:s.mean_size_bytes
             ?stop:s.sf_stop ())
  in
  (* --- measurement window bookkeeping --- *)
  List.iter
    (fun live ->
      let window_start = Float.max t.warmup live.spec.start in
      ignore
        (Sim.schedule_at sim ~time:window_start (fun () ->
             (match live.receiver with
             | Some r -> live.received_at_window_start <- Tcp.Receiver.bytes_received r
             | None -> ());
             (match live.udp_sink with
             | Some sink -> live.received_at_window_start <- Tcp.Udp.Sink.bytes_received sink
             | None -> ());
             let offered =
               match (live.cbr, live.onoff) with
               | Some c, _ -> App.Cbr.bytes_offered c
               | None, Some o -> App.Onoff.bytes_offered o
               | None, None -> 0
             in
             live.offered_at_window_start <- offered)))
    lives;
  Sim.run ~until:t.duration sim;
  (* Final per-flow attribution gauges for the metrics export (the
     timeline probes above carry the trajectories). *)
  (match (Ccsim_obs.Scope.ambient ()).Ccsim_obs.Scope.metrics with
  | Some m ->
      List.iter
        (fun live ->
          let labels = [ ("flow", live.spec.label) ] in
          Ccsim_obs.Metrics.set
            (Ccsim_obs.Metrics.gauge m ~labels "link_flow_busy_seconds")
            (Net.Link.flow_busy_seconds topo.bottleneck ~flow:live.flow_id);
          Ccsim_obs.Metrics.set
            (Ccsim_obs.Metrics.gauge m ~labels "qdisc_flow_dropped_total")
            (float_of_int (Net.Link.flow_drops topo.bottleneck ~flow:live.flow_id)))
        lives
  | None -> ());
  (* --- collect results --- *)
  let window_of live =
    let start = Float.max t.warmup live.spec.start in
    Float.max 1e-9 (t.duration -. start)
  in
  let flow_results =
    List.map
      (fun live ->
        let window = window_of live in
        let received =
          match (live.receiver, live.udp_sink) with
          | Some r, _ -> Tcp.Receiver.bytes_received r
          | None, Some sink -> Tcp.Udp.Sink.bytes_received sink
          | None, None -> 0
        in
        let goodput =
          float_of_int (received - live.received_at_window_start) *. 8.0 /. window
        in
        let offered_now =
          match (live.cbr, live.onoff) with
          | Some c, _ -> App.Cbr.bytes_offered c
          | None, Some o -> App.Onoff.bytes_offered o
          | None, None -> 0
        in
        let offered =
          if offered_now = 0 then goodput
          else float_of_int (offered_now - live.offered_at_window_start) *. 8.0 /. window
        in
        let throughput =
          match live.monitor with
          | Some m -> Measure.Telemetry.Flow_monitor.throughput m
          | None -> (
              match live.udp_sink with
              | Some sink ->
                  U.Timeseries.rate_of_cumulative
                    (let arr = Tcp.Udp.Sink.arrivals sink in
                     let cum = U.Timeseries.create () in
                     let total = ref 0.0 in
                     List.iter
                       (fun (time, v) ->
                         total := !total +. v;
                         U.Timeseries.add cum ~time ~value:(!total *. 8.0))
                       (U.Timeseries.to_list arr);
                     cum)
                    ~interval:t.monitor_interval
              | None -> U.Timeseries.create ())
        in
        let mean_srtt =
          match live.monitor with
          | Some m ->
              let s = Measure.Telemetry.Flow_monitor.srtt m in
              if U.Timeseries.is_empty s then 0.0 else U.Timeseries.mean_value s
          | None -> 0.0
        in
        {
          Results.label = live.spec.label;
          goodput_bps = goodput;
          offered_bps = offered;
          bytes_acked =
            (match live.sender with Some s -> Tcp.Sender.bytes_acked s | None -> received);
          retransmits = (match live.sender with Some s -> Tcp.Sender.segs_retrans s | None -> 0);
          mean_srtt_s = mean_srtt;
          throughput;
          nimbus = live.nimbus;
          video = Option.map App.Video.stats live.video;
          speedtest = Option.bind live.speedtest App.Speedtest.result;
          jitter_s =
            (match live.udp_sink with
            | Some sink -> Tcp.Udp.Sink.interarrival_jitter sink
            | None -> 0.0);
        })
      lives
  in
  let short_flow_stats =
    Option.map
      (fun sf ->
        let completed = App.Poisson_flows.completed sf in
        let times =
          List.filter_map
            (fun (r : App.Poisson_flows.flow_record) ->
              Option.map (fun f -> f -. r.started) r.finished)
            completed
        in
        {
          Results.spawned = App.Poisson_flows.spawn_count sf;
          completed = List.length completed;
          fraction_in_initial_window = App.Poisson_flows.fraction_within_initial_window sf;
          completion_times =
            (match times with [] -> None | _ -> Some (U.Cdf.of_samples (Array.of_list times)));
        })
      short
  in
  let goodputs = Array.of_list (List.map (fun (f : Results.flow_result) -> f.goodput_bps) flow_results) in
  {
    Results.scenario_name = t.name;
    duration = t.duration;
    flows = flow_results;
    jain_index = (if Array.length goodputs = 0 then 1.0 else U.Fairness.jain_index goodputs);
    utilization = Net.Link.utilization topo.bottleneck ~now:t.duration;
    bottleneck_drops = qdisc.Net.Qdisc.stats.dropped;
    bottleneck_loss_rate = Net.Qdisc.loss_rate qdisc;
    mean_queue_bytes = Measure.Telemetry.Queue_monitor.mean_backlog_bytes queue_monitor;
    short_flow_stats;
    faults = Option.map Ccsim_faults.Injector.summary injector;
  }
