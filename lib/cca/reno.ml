let create () =
  let mss = Ccsim_util.Units.mss in
  let fmss = float_of_int mss in
  let initial = Cca.initial_window ~mss in
  let ssthresh = ref infinity in
  let cca =
    Cca.make ~name:"reno" ~cwnd:initial ()
  in
  let on_ack (info : Cca.ack_info) =
    let acked = float_of_int info.newly_acked in
    if cca.cwnd < !ssthresh then
      (* Slow start: grow by the acked bytes (doubling per RTT). *)
      cca.cwnd <- cca.cwnd +. acked
    else
      (* Congestion avoidance: one MSS per window's worth of acks. *)
      cca.cwnd <- cca.cwnd +. (fmss *. acked /. cca.cwnd)
  in
  let on_loss () =
    ssthresh := Float.max (cca.cwnd /. 2.0) (2.0 *. fmss);
    cca.cwnd <- !ssthresh
  in
  let on_rto ~now:_ =
    ssthresh := Float.max (cca.cwnd /. 2.0) (2.0 *. fmss);
    cca.cwnd <- fmss
  in
  cca.Cca.on_ack <- on_ack;
  cca.Cca.on_loss <- on_loss;
  cca.Cca.on_rto <- on_rto;
  cca
