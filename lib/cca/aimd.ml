let make ~name ~a ~b =
  let fmss = float_of_int Ccsim_util.Units.mss in
  let ssthresh = ref infinity in
  let cca = Cca.make ~name () in
  let on_ack (info : Cca.ack_info) =
    if cca.cwnd < !ssthresh then Cca.slow_start cca info
    else cca.cwnd <- cca.cwnd +. (a *. fmss *. float_of_int info.newly_acked /. cca.cwnd)
  in
  cca.Cca.on_ack <- on_ack;
  cca.Cca.on_loss <- (fun () -> Cca.cut_on_loss cca ssthresh ~beta:b);
  cca.Cca.on_rto <- (fun ~now:_ -> Cca.cut_on_rto cca ssthresh ~beta:b);
  cca

let create ?(a = 1.0) ?(b = 0.5) () =
  if a <= 0.0 then invalid_arg "Aimd.create: a must be positive";
  if b <= 0.0 || b >= 1.0 then invalid_arg "Aimd.create: b must be in (0,1)";
  make ~name:(Printf.sprintf "aimd(%.2g,%.2g)" a b) ~a ~b
