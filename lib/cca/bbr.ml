type mode = Startup | Drain | Probe_bw | Probe_rtt

module Max_filter = Ccsim_util.Windowed_max

let pacing_gain_cycle = [| 1.25; 0.75; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]
let startup_gain = 2.885
let probe_rtt_duration = 0.2
let min_rtt_window = 10.0

let mode_label = function
  | Startup -> "startup"
  | Drain -> "drain"
  | Probe_bw -> "probe_bw"
  | Probe_rtt -> "probe_rtt"

let create () =
  let mss = Ccsim_util.Units.mss in
  let fmss = float_of_int mss in
  let initial = Cca.initial_window ~mss in
  let cca = Cca.make ~name:"bbr" ~cwnd:initial () in
  let scope = Ccsim_obs.Scope.ambient () in
  let m_switches =
    Option.map
      (fun m ->
        Ccsim_obs.Metrics.counter m ~labels:[ ("cca", "bbr") ] "cca_state_switches_total")
      scope.Ccsim_obs.Scope.metrics
  in
  let obs_recorder = scope.Ccsim_obs.Scope.recorder in
  let mode = ref Startup in
  let note_switch ~now next =
    (match m_switches with Some c -> Ccsim_obs.Metrics.inc c | None -> ());
    match obs_recorder with
    | Some r ->
        Ccsim_obs.Recorder.record r ~at:now ~severity:Ccsim_obs.Recorder.Info ~kind:"cca"
          ~point:"bbr"
          ~fields:[ ("from", mode_label !mode); ("to", mode_label next) ]
          "mode_switch"
    | None -> ()
  in
  let switch_mode ~now next =
    note_switch ~now next;
    mode := next
  in
  let btlbw = Max_filter.create ~window:10 in
  let min_rtt = ref infinity in
  let min_rtt_stamp = ref 0.0 in
  (* Round accounting: a round trip ends when the data outstanding at its
     start has been delivered. *)
  let delivered = ref 0 in
  let round = ref 0 in
  let round_end = ref 0 in
  let full_bw = ref 0.0 in
  let full_bw_count = ref 0 in
  let round_started = ref false in
  let cycle_index = ref 0 in
  let cycle_stamp = ref 0.0 in
  let probe_rtt_done = ref 0.0 in
  let pacing_gain () =
    match !mode with
    | Startup -> startup_gain
    | Drain -> 1.0 /. startup_gain
    | Probe_bw -> pacing_gain_cycle.(!cycle_index)
    | Probe_rtt -> 1.0
  in
  let cwnd_gain () =
    match !mode with Startup | Drain -> startup_gain | Probe_bw -> 2.0 | Probe_rtt -> 1.0
  in
  let bdp_bytes bw =
    let rtt = if Float.is_finite !min_rtt then !min_rtt else 0.1 in
    bw *. rtt /. 8.0
  in
  let update_control () =
    let bw = Max_filter.get btlbw in
    if bw > 0.0 then begin
      cca.pacing_rate <- Float.max (pacing_gain () *. bw) 1000.0;
      let target = cwnd_gain () *. bdp_bytes bw in
      cca.cwnd <-
        (match !mode with
        | Probe_rtt -> 4.0 *. fmss
        | Startup | Drain | Probe_bw -> Float.max (4.0 *. fmss) target)
    end
  in
  (* Once per round in STARTUP: has the bandwidth estimate grown >= 25%? *)
  let check_full_pipe () =
    let bw = Max_filter.get btlbw in
    if bw > !full_bw *. 1.25 then begin
      full_bw := bw;
      full_bw_count := 0
    end
    else incr full_bw_count
  in
  let on_ack (info : Cca.ack_info) =
    let now = info.now in
    delivered := !delivered + info.newly_acked;
    if !delivered >= !round_end then begin
      incr round;
      round_end := !delivered + info.inflight;
      round_started := true
    end
    else round_started := false;
    if info.delivery_rate > 0.0 && ((not info.app_limited) || info.delivery_rate > Max_filter.get btlbw)
    then Max_filter.update btlbw ~round:!round ~value:info.delivery_rate;
    (match info.rtt_sample with
    | Some rtt when rtt <= !min_rtt || now -. !min_rtt_stamp > min_rtt_window ->
        min_rtt := rtt;
        min_rtt_stamp := now
    | Some _ | None -> ());
    let rtt = if Float.is_finite !min_rtt then !min_rtt else Float.max info.srtt 0.01 in
    (match !mode with
    | Startup ->
        if !round_started then begin
          check_full_pipe ();
          if !full_bw_count >= 3 then switch_mode ~now Drain
        end
    | Drain ->
        if float_of_int info.inflight <= bdp_bytes (Max_filter.get btlbw) then begin
          switch_mode ~now Probe_bw;
          cycle_stamp := now;
          cycle_index := 2 (* start in a neutral phase *)
        end
    | Probe_bw ->
        (* Each gain phase lasts about one rtprop. *)
        if now -. !cycle_stamp >= rtt then begin
          cycle_stamp := now;
          cycle_index := (!cycle_index + 1) mod Array.length pacing_gain_cycle
        end;
        if now -. !min_rtt_stamp > min_rtt_window then begin
          switch_mode ~now Probe_rtt;
          probe_rtt_done := now +. probe_rtt_duration
        end
    | Probe_rtt ->
        if now >= !probe_rtt_done then begin
          min_rtt_stamp := now;
          switch_mode ~now Probe_bw;
          cycle_stamp := now;
          cycle_index := 2
        end);
    update_control ()
  in
  (* BBRv1 does not react to individual packet losses. *)
  let on_loss () = () in
  let on_rto ~now =
    (* Severe signal: restart the model conservatively. *)
    (match !mode with Startup -> () | _ -> note_switch ~now Startup);
    mode := Startup;
    full_bw := 0.0;
    full_bw_count := 0;
    cca.cwnd <- 4.0 *. fmss;
    update_control ()
  in
  cca.Cca.on_ack <- on_ack;
  cca.Cca.on_loss <- on_loss;
  cca.Cca.on_rto <- on_rto;
  cca
