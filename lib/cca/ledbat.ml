let create ?(target_delay = 0.025) ?initial_cwnd () =
  if target_delay <= 0.0 then invalid_arg "Ledbat.create: target delay must be positive";
  let gain = 1.0 in
  let mss = Ccsim_util.Units.mss in
  let fmss = float_of_int mss in
  let initial = match initial_cwnd with Some c -> c | None -> Cca.initial_window ~mss in
  let cca = Cca.make ~name:"ledbat" ~cwnd:initial () in
  let on_ack (info : Cca.ack_info) =
    match info.rtt_sample with
    | Some rtt when Float.is_finite info.min_rtt && info.min_rtt > 0.0 ->
        let queuing_delay = Float.max 0.0 (rtt -. info.min_rtt) in
        (* off_target in [-inf, 1]: positive below the target delay. *)
        let off_target = (target_delay -. queuing_delay) /. target_delay in
        let acked = float_of_int info.newly_acked in
        let delta = gain *. off_target *. acked *. fmss /. cca.cwnd in
        cca.cwnd <- Float.max (2.0 *. fmss) (cca.cwnd +. delta)
    | Some _ | None -> ()
  in
  let on_loss () =
    cca.cwnd <- Float.max (2.0 *. fmss) (cca.cwnd /. 2.0)
  in
  let on_rto ~now:_ = cca.cwnd <- 2.0 *. fmss in
  cca.Cca.on_ack <- on_ack;
  cca.Cca.on_loss <- on_loss;
  cca.Cca.on_rto <- on_rto;
  cca
