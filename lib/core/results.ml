type flow_result = {
  label : string;
  goodput_bps : float;
  offered_bps : float;
  bytes_acked : int;
  retransmits : int;
  mean_srtt_s : float;
  throughput : Ccsim_util.Timeseries.t;
  nimbus : Ccsim_cca.Nimbus.handle option;
  video : Ccsim_app.Video.stats option;
  speedtest : Ccsim_app.Speedtest.result option;
  jitter_s : float;
}

type t = {
  scenario_name : string;
  duration : float;
  flows : flow_result list;
  jain_index : float;
  utilization : float;
  bottleneck_drops : int;
  bottleneck_loss_rate : float;
  mean_queue_bytes : float;
  short_flow_stats : short_flow_stats option;
  faults : Ccsim_faults.Injector.summary option;
}

and short_flow_stats = {
  spawned : int;
  completed : int;
  fraction_in_initial_window : float;
  completion_times : Ccsim_util.Cdf.t option;
}

let find t label =
  match List.find_opt (fun f -> String.equal f.label label) t.flows with
  | Some f -> f
  | None -> raise Not_found

let goodputs t = Array.of_list (List.map (fun f -> f.goodput_bps) t.flows)

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>%s (%.0fs):@," t.scenario_name t.duration;
  List.iter
    (fun f ->
      Format.fprintf ppf "  %-16s %8.2f Mbit/s  retx=%-5d srtt=%.1fms@," f.label
        (f.goodput_bps /. 1e6) f.retransmits (1e3 *. f.mean_srtt_s))
    t.flows;
  Format.fprintf ppf "  jain=%.3f util=%.2f drops=%d q_mean=%.0fB" t.jain_index t.utilization
    t.bottleneck_drops t.mean_queue_bytes;
  (match t.faults with
  | None -> ()
  | Some f ->
      Format.fprintf ppf "@,  faults fired=%d cleared=%d wire_lost=%d corrupted=%d flushed=%d"
        f.fired f.cleared f.wire_lost f.wire_corrupted f.qdisc_flushed);
  Format.fprintf ppf "@]"
