let create ?(a = 1.0) ?(b = 0.5) () =
  if a <= 0.0 then invalid_arg "Aimd.create: a must be positive";
  if b <= 0.0 || b >= 1.0 then invalid_arg "Aimd.create: b must be in (0,1)";
  let mss = Ccsim_util.Units.mss in
  let fmss = float_of_int mss in
  let initial = Cca.initial_window ~mss in
  let ssthresh = ref infinity in
  let cca = Cca.make ~name:(Printf.sprintf "aimd(%.2g,%.2g)" a b) ~cwnd:initial () in
  let on_ack (info : Cca.ack_info) =
    let acked = float_of_int info.newly_acked in
    if cca.cwnd < !ssthresh then cca.cwnd <- cca.cwnd +. acked
    else cca.cwnd <- cca.cwnd +. (a *. fmss *. acked /. cca.cwnd)
  in
  let on_loss () =
    ssthresh := Float.max (cca.cwnd *. b) (2.0 *. fmss);
    cca.cwnd <- !ssthresh
  in
  let on_rto ~now:_ =
    ssthresh := Float.max (cca.cwnd *. b) (2.0 *. fmss);
    cca.cwnd <- fmss
  in
  cca.Cca.on_ack <- on_ack;
  cca.Cca.on_loss <- on_loss;
  cca.Cca.on_rto <- on_rto;
  cca
