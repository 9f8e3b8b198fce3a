module Sim = Ccsim_engine.Sim
module U = Ccsim_util

module Flow_monitor = struct
  type t = {
    throughput : U.Timeseries.t;
    srtt : U.Timeseries.t;
    mutable last_acked : int;
    mutable last_time : float;
  }

  let create sim ~sender ?label ?(interval = 0.1) () =
    if interval <= 0.0 then
      invalid_arg "Telemetry.Flow_monitor.create: interval must be positive";
    (* Per-flow timeline probes, sampled by the engine's timeline driver
       (no-ops without a timeline in scope). Goodput is the acked-byte
       delta between driver ticks. *)
    let labels =
      [
        ( "flow",
          match label with
          | Some l -> l
          | None -> string_of_int (Ccsim_tcp.Sender.flow sender) );
      ]
    in
    let probe_acked = ref (Ccsim_tcp.Sender.bytes_acked sender) in
    let probe_time = ref (Sim.now sim) in
    Sim.add_timeline_probe sim ~labels "flow_goodput_bps" (fun () ->
        let now = Sim.now sim in
        let acked = Ccsim_tcp.Sender.bytes_acked sender in
        let dt = now -. !probe_time in
        let rate =
          if dt > 0.0 then float_of_int (acked - !probe_acked) *. 8.0 /. dt else 0.0
        in
        probe_acked := acked;
        probe_time := now;
        rate);
    Sim.add_timeline_probe sim ~labels "flow_cwnd_bytes" (fun () ->
        (Ccsim_tcp.Sender.cca sender).Ccsim_cca.Cca.cwnd);
    Sim.add_timeline_probe sim ~labels "flow_srtt_s" (fun () ->
        Ccsim_tcp.Sender.srtt sender);
    Sim.add_timeline_probe sim ~labels "flow_inflight_bytes" (fun () ->
        float_of_int (Ccsim_tcp.Sender.inflight sender));
    Sim.add_timeline_probe sim ~labels "flow_min_rtt_s" (fun () ->
        Ccsim_tcp.Sender.min_rtt sender);
    (* Send-limit attribution: cumulative seconds per limit, one series
       per limit label so `ccsim explain` can read the final value of
       each. Sampling calls Sender.info once per limit per tick — cheap,
       and only while a timeline is in scope. *)
    List.iter
      (fun (limit, read) ->
        Sim.add_timeline_probe sim
          ~labels:(("limit", limit) :: labels)
          "flow_limited_s"
          (fun () -> read (Ccsim_tcp.Sender.info sender)))
      [
        ("app", fun (i : Ccsim_tcp.Tcp_info.t) -> i.app_limited_s);
        ("rwnd", fun (i : Ccsim_tcp.Tcp_info.t) -> i.rwnd_limited_s);
        ("cwnd", fun (i : Ccsim_tcp.Tcp_info.t) -> i.cwnd_limited_s);
        ("pacing", fun (i : Ccsim_tcp.Tcp_info.t) -> i.pacing_limited_s);
        ("recovery", fun (i : Ccsim_tcp.Tcp_info.t) -> i.recovery_s);
      ];
    let t =
      {
        throughput = U.Timeseries.create ();
        srtt = U.Timeseries.create ();
        last_acked = Ccsim_tcp.Sender.bytes_acked sender;
        last_time = Sim.now sim;
      }
    in
    Sim.every sim ~interval (fun () ->
        Sim.set_component sim Ccsim_obs.Profile.Telemetry;
        let now = Sim.now sim in
        let acked = Ccsim_tcp.Sender.bytes_acked sender in
        U.Timeseries.add t.srtt ~time:now ~value:(Ccsim_tcp.Sender.srtt sender);
        let dt = now -. t.last_time in
        if dt > 0.0 then
          U.Timeseries.add t.throughput ~time:now
            ~value:(float_of_int (acked - t.last_acked) *. 8.0 /. dt);
        t.last_acked <- acked;
        t.last_time <- now);
    t

  let throughput t = t.throughput
  let srtt t = t.srtt
end

module Queue_monitor = struct
  type t = { backlog : U.Timeseries.t }

  let create sim ~qdisc ?(interval = 0.01) () =
    if interval <= 0.0 then
      invalid_arg "Telemetry.Queue_monitor.create: interval must be positive";
    let labels = [ ("queue", qdisc.Ccsim_net.Qdisc.name) ] in
    Sim.add_timeline_probe sim ~labels "queue_backlog_bytes" (fun () ->
        float_of_int (qdisc.Ccsim_net.Qdisc.backlog_bytes ()));
    Sim.add_timeline_probe sim ~labels "queue_drops_total" (fun () ->
        float_of_int qdisc.Ccsim_net.Qdisc.stats.dropped);
    let t = { backlog = U.Timeseries.create () } in
    Sim.every sim ~interval (fun () ->
        Sim.set_component sim Ccsim_obs.Profile.Telemetry;
        U.Timeseries.add t.backlog ~time:(Sim.now sim)
          ~value:(float_of_int (qdisc.Ccsim_net.Qdisc.backlog_bytes ())));
    t

  let mean_backlog_bytes t =
    if U.Timeseries.is_empty t.backlog then 0.0 else U.Timeseries.mean_value t.backlog

  let max_backlog_bytes t =
    if U.Timeseries.is_empty t.backlog then 0.0
    else Array.fold_left Float.max 0.0 (U.Timeseries.values t.backlog)
end
