module Sim = Ccsim_engine.Sim
module U = Ccsim_util

type handle = {
  elasticity : U.Timeseries.t;
  cross_rate : U.Timeseries.t;
  mode : unit -> [ `Delay | `Competitive ];
  capacity_estimate : unit -> float;
}

(* Estimator settings: 5 Hz pulses sampled at 100 Hz, a 512-sample
   (5.12 s) spectral window, and the mode switch's elasticity threshold
   (enter competitive above it, leave below half of it). *)
let pulse_freq_hz = 5.0
let sample_rate_hz = 100.0
let fft_size = 512
let elastic_threshold = 0.5

let create sim ?(pulse_amplitude = 0.25) ?(mode_switching = true)
    ?known_capacity_bps () =
  if pulse_amplitude <= 0.0 || pulse_amplitude >= 1.0 then
    invalid_arg "Nimbus.create: pulse_amplitude must be in (0,1)";
  let mss = U.Units.mss in
  let fmss = float_of_int mss in
  let cca =
    Cca.make ~name:"nimbus" ~cwnd:(Cca.initial_window ~mss)
      ~pacing_rate:(U.Units.mbps 1.0) ()
  in
  let dt = 1.0 /. sample_rate_hz in
  (* --- per-tick measured signals --- *)
  let sent_bytes = ref 0 in (* bytes sent since the last sampler tick *)
  let acked_bytes = ref 0 in (* bytes acked since the last sampler tick *)
  let rin = ref 0.0 in (* lightly smoothed send rate, bit/s *)
  let rout = ref 0.0 in (* lightly smoothed delivery (ack) rate, bit/s *)
  let rout_slow = ref 0.0 in (* heavily smoothed, feeds the capacity filter:
                                ack bursts after recovery would otherwise
                                masquerade as capacity *)
  let mu_filter = ref 0.0 in
  let srtt = ref 0.0 in
  let last_rtt = ref 0.0 in
  let min_rtt = ref infinity in
  let mu () =
    match known_capacity_bps with Some c -> c | None -> Float.max !mu_filter !rout
  in
  (* History of rin so the cross-traffic estimator can align the send
     rate with the delivery rate it produced one feedback delay later.
     Without this alignment the probe's own pulse, phase-shifted by the
     RTT, masquerades as elastic cross traffic. *)
  let history_len = 1024 in
  let rin_history = Array.make history_len 0.0 in
  let tick_count = ref 0 in
  (* --- elasticity estimation --- *)
  (* Raw-signal rings: longer than the spectral window by the maximum
     candidate alignment delay (see compute_elasticity). *)
  let max_delay_samples = 64 in
  let ring_len = fft_size + max_delay_samples in
  let z_ring = U.Ring_buffer.create ~capacity:fft_size in
  let rin_ring = U.Ring_buffer.create ~capacity:ring_len in
  let rout_ring = U.Ring_buffer.create ~capacity:ring_len in
  let dq_ring = U.Ring_buffer.create ~capacity:ring_len in
  (* Estimation scratch, filled in place every epoch: the rings' windows,
     one candidate alignment's z, the own-rate window, and the plan for
     the three spectral bins read from each. *)
  let plan = U.Fft.plan fft_size in
  let rin_w = Array.make ring_len 0.0 in
  let rout_w = Array.make ring_len 0.0 in
  let dq_w = Array.make ring_len 0.0 in
  let z_d = Array.make fft_size 0.0 in
  let own_w = Array.make fft_size 0.0 in
  let elasticity_series = U.Timeseries.create () in
  let cross_series = U.Timeseries.create () in
  let latest_elasticity = ref 0.0 in
  let scope = Ccsim_obs.Scope.ambient () in
  (* Exact mirror of the elasticity estimates into the run's timeline
     (one point per estimation epoch, far below the decimation
     threshold), so offline analysis of an exported series reproduces
     the in-simulation classification bit-for-bit. *)
  let tl_elasticity = Sim.timeline_series sim "nimbus_elasticity" in
  let m_switches =
    Option.map
      (fun m ->
        Ccsim_obs.Metrics.counter m ~labels:[ ("cca", "nimbus") ] "cca_state_switches_total")
      scope.Ccsim_obs.Scope.metrics
  in
  let m_epochs =
    Option.map
      (fun m -> Ccsim_obs.Metrics.counter m "nimbus_estimation_epochs_total")
      scope.Ccsim_obs.Scope.metrics
  in
  let obs_recorder = scope.Ccsim_obs.Scope.recorder in
  let mode_name = function `Delay -> "delay" | `Competitive -> "competitive" in
  let note_mode_switch ~now ~from_mode next =
    (match m_switches with Some c -> Ccsim_obs.Metrics.inc c | None -> ());
    match obs_recorder with
    | Some r ->
        Ccsim_obs.Recorder.record r ~at:now ~severity:Ccsim_obs.Recorder.Info ~kind:"cca"
          ~point:"nimbus"
          ~fields:
            [
              ("from", mode_name from_mode);
              ("to", mode_name next);
              ("elasticity", Printf.sprintf "%.4f" !latest_elasticity);
            ]
          "mode_switch"
    | None -> ()
  in
  (* --- control --- *)
  (* With mode switching disabled (the paper's measurement configuration)
     the probe runs TCP-competitive permanently: a delay-mode probe would
     starve against loss-based cross traffic and have no rate left to
     pulse with. *)
  let mode = ref (if mode_switching then `Delay else `Competitive) in
  let base_rate = ref (U.Units.mbps 1.0) in
  let virtual_cwnd = ref (Cca.initial_window ~mss) in
  (* The elasticity score searches over candidate feedback delays d and
     keeps the delay that best cancels the probe's own pulse:

       z_d(t) = mu * rin(t - d) / rout(t) - rin(t - d).

     For inelastic cross traffic there exists a d (the true feedback
     delay) at which z_d is constant, so min_d |Z_d(f_p)| ~ 0. Elastic
     cross traffic genuinely responds to the pulses, and no alignment
     cancels that response. This makes the metric robust to RTT
     estimation error and queueing-delay drift. *)
  let compute_elasticity now =
    if U.Ring_buffer.is_full rout_ring && U.Ring_buffer.is_full dq_ring then begin
      (match m_epochs with Some c -> Ccsim_obs.Metrics.inc c | None -> ());
      U.Ring_buffer.blit rin_ring rin_w;
      U.Ring_buffer.blit rout_ring rout_w;
      U.Ring_buffer.blit dq_ring dq_w;
      let capacity = mu () in
      let offset = ring_len - fft_size in
      let best = ref infinity in
      let d = ref 0 in
      while !d <= max_delay_samples do
        for i = 0 to fft_size - 1 do
          let rout_i = rout_w.(offset + i) in
          let rin_i = rin_w.(offset + i - !d) in
          (* The mixing identity behind z is only valid while the
             bottleneck queue is non-empty; on an unsaturated link there
             is no cross pressure to measure, so z reads zero. *)
          let saturated = dq_w.(offset + i) > 0.002 in
          z_d.(i) <-
            (if not saturated then 0.0
             else if rout_i > 0.02 *. capacity then
               Float.min capacity (Float.max 0.0 ((capacity *. rin_i /. rout_i) -. rin_i))
             else if i > 0 then z_d.(i - 1)
             else 0.0)
        done;
        let mag = U.Fft.magnitude_at plan z_d ~sample_rate:sample_rate_hz ~freq:pulse_freq_hz in
        if mag < !best then best := mag;
        incr d
      done;
      Array.blit rin_w offset own_w 0 fft_size;
      let own_mag =
        U.Fft.magnitude_at plan own_w ~sample_rate:sample_rate_hz ~freq:pulse_freq_hz
      in
      (* Normalize by the larger of the measured self-pulse and half the
         configured pulse size, so a squashed own-signal cannot inflate
         the score. *)
      let pulse_floor = pulse_amplitude *. capacity /. 2.0 in
      let denom = Float.max own_mag pulse_floor in
      if denom > 0.0 then begin
        let e = !best /. denom in
        latest_elasticity := e;
        U.Timeseries.add elasticity_series ~time:now ~value:e;
        (match tl_elasticity with
        | Some s -> Ccsim_obs.Timeline.record s ~time:now ~value:e
        | None -> ());
        if mode_switching then
          match !mode with
          | `Delay when e > elastic_threshold ->
              note_mode_switch ~now ~from_mode:`Delay `Competitive;
              mode := `Competitive;
              virtual_cwnd := Float.max (4.0 *. fmss) (!base_rate *. !srtt /. 8.0)
          | `Competitive when e < elastic_threshold /. 2.0 ->
              note_mode_switch ~now ~from_mode:`Competitive `Delay;
              mode := `Delay
          | `Delay | `Competitive -> ()
      end
    end
  in
  let update_base_rate () =
    match !mode with
    | `Competitive ->
        (* Virtual Reno: rate follows the emulated window. *)
        if !srtt > 0.0 then base_rate := !virtual_cwnd *. 8.0 /. !srtt
    | `Delay ->
        (* Drive the queueing delay toward a small target. *)
        if !srtt > 0.0 && Float.is_finite !min_rtt then begin
          let dq = Float.max 0.0 (!srtt -. !min_rtt) in
          let target = Float.max 0.005 (0.1 *. !min_rtt) in
          let capacity = mu () in
          if capacity > 0.0 then begin
            let error = (target -. dq) /. target in
            let next = !rout +. (0.3 *. capacity *. error) in
            base_rate := Float.max (0.02 *. capacity) (Float.min (1.2 *. capacity) next)
          end
        end
  in
  let tick () =
    let now = Sim.now sim in
    let inst_rin = float_of_int !sent_bytes *. 8.0 /. dt in
    let inst_rout = float_of_int !acked_bytes *. 8.0 /. dt in
    sent_bytes := 0;
    acked_bytes := 0;
    (* Light smoothing: enough to tame packet quantization, mild pulse
       attenuation (applied identically to both signals). *)
    rin := (0.5 *. inst_rin) +. (0.5 *. !rin);
    rout := (0.5 *. inst_rout) +. (0.5 *. !rout);
    rout_slow := (0.05 *. inst_rout) +. (0.95 *. !rout_slow);
    rin_history.(!tick_count mod history_len) <- !rin;
    (* mu: decaying max of the slow delivery rate (~15 s memory). *)
    mu_filter := Float.max (!mu_filter *. (1.0 -. (dt /. 15.0))) !rout_slow;
    let capacity = mu () in
    (* Cross-traffic estimate with the send rate delayed by one RTT. *)
    let delay_samples =
      let d = if !srtt > 0.0 then !srtt else 0.1 in
      min (history_len - 1) (max 0 (int_of_float (Float.round (d /. dt))))
    in
    let delayed_index = (!tick_count - delay_samples + history_len) mod history_len in
    let rin_delayed = if !tick_count >= delay_samples then rin_history.(delayed_index) else !rin in
    incr tick_count;
    (* A transient ack stall would send z to infinity through the rout
       division; hold the previous estimate instead, and clamp to the
       physically meaningful range [0, capacity]. *)
    let dq =
      if Float.is_finite !min_rtt && !last_rtt > 0.0 then Float.max 0.0 (!last_rtt -. !min_rtt)
      else 0.0
    in
    let z =
      if dq <= 0.002 then 0.0
      else if !rout > 0.02 *. capacity then
        Float.min capacity
          (Float.max 0.0 ((capacity *. rin_delayed /. !rout) -. rin_delayed))
      else if U.Ring_buffer.length z_ring > 0 then U.Ring_buffer.newest z_ring
      else 0.0
    in
    U.Ring_buffer.push z_ring z;
    U.Ring_buffer.push rin_ring !rin;
    U.Ring_buffer.push rout_ring !rout;
    U.Ring_buffer.push dq_ring dq;
    U.Timeseries.add cross_series ~time:now ~value:z;
    update_base_rate ();
    (* Superimpose the probing pulse on the pacing rate. As in Nimbus,
       pulses are sized relative to the bottleneck capacity, not the
       flow's own rate — they must be large enough to force elastic
       cross traffic to visibly yield. *)
    let phase = 2.0 *. Float.pi *. pulse_freq_hz *. now in
    let pulse_scale = if capacity > 0.0 then capacity else !base_rate in
    let rate = !base_rate +. (pulse_amplitude *. pulse_scale *. sin phase) in
    cca.pacing_rate <- Float.max (Float.max (8.0 *. fmss) (0.02 *. pulse_scale)) rate;
    (* The window exists only to avoid limiting the paced rate — size it
       for the pulse peaks, not just the base, or the probing signal
       never reaches the wire when the base rate is low. *)
    let rtt = if !srtt > 0.0 then !srtt else 0.1 in
    cca.cwnd <-
      Float.max (4.0 *. fmss)
        (2.0 *. (!base_rate +. (pulse_amplitude *. pulse_scale)) *. rtt /. 8.0)
  in
  Sim.every sim ~interval:dt (fun () ->
      Sim.set_component sim Ccsim_obs.Profile.Cca;
      tick ());
  let estimation_interval = 0.5 in
  Sim.every sim ~interval:estimation_interval (fun () ->
      Sim.set_component sim Ccsim_obs.Profile.Cca;
      compute_elasticity (Sim.now sim));
  let on_ack (info : Cca.ack_info) =
    if info.srtt > 0.0 then srtt := info.srtt;
    acked_bytes := !acked_bytes + info.newly_acked;
    (match info.rtt_sample with
    | Some rtt ->
        last_rtt := rtt;
        if rtt < !min_rtt then min_rtt := rtt
    | None -> ());
    (* Virtual Reno bookkeeping for competitive mode. *)
    virtual_cwnd :=
      !virtual_cwnd +. (fmss *. float_of_int info.newly_acked /. !virtual_cwnd)
  in
  let on_loss () =
    virtual_cwnd := Float.max (2.0 *. fmss) (!virtual_cwnd /. 2.0);
    match !mode with
    | `Delay -> base_rate := Float.max (8.0 *. fmss) (!base_rate *. 0.9)
    | `Competitive -> ()
  in
  let on_rto ~now:_ =
    virtual_cwnd := 2.0 *. fmss;
    base_rate := Float.max (8.0 *. fmss) (!base_rate *. 0.5)
  in
  let on_send ~now:_ ~bytes = sent_bytes := !sent_bytes + bytes in
  let handle =
    {
      elasticity = elasticity_series;
      cross_rate = cross_series;
      mode = (fun () -> !mode);
      capacity_estimate = mu;
    }
  in
  cca.Cca.on_ack <- on_ack;
  cca.Cca.on_loss <- on_loss;
  cca.Cca.on_rto <- on_rto;
  cca.Cca.on_send <- on_send;
  (cca, handle)
