let create () =
  let alpha = 2.0 and beta = 4.0 in
  let mss = Ccsim_util.Units.mss in
  let fmss = float_of_int mss in
  let initial = Cca.initial_window ~mss in
  let cca = Cca.make ~name:"vegas" ~cwnd:initial () in
  let ssthresh = ref infinity in
  (* Explicit phase flag: a delay-based decrease may push cwnd below
     ssthresh, which must not re-enter slow start. *)
  let slow_start = ref true in
  let next_adjust = ref 0.0 in
  let on_ack (info : Cca.ack_info) =
    if !slow_start && cca.cwnd >= !ssthresh then slow_start := false;
    if !slow_start && info.srtt > 0.0 && info.min_rtt > 0.0 then begin
      (* Vegas leaves slow start once it detects queue build-up (the
         gamma rule), not only on loss. *)
      let cwnd_pkts = cca.cwnd /. fmss in
      let diff = cwnd_pkts *. (1.0 -. (info.min_rtt /. info.srtt)) in
      if diff > beta then slow_start := false
    end;
    if !slow_start then Cca.slow_start cca info
    else if info.now >= !next_adjust && info.srtt > 0.0 && info.min_rtt > 0.0 then begin
      next_adjust := info.now +. info.srtt;
      let cwnd_pkts = cca.cwnd /. fmss in
      let diff = cwnd_pkts *. (1.0 -. (info.min_rtt /. info.srtt)) in
      if diff < alpha then cca.cwnd <- cca.cwnd +. fmss
      else if diff > beta then cca.cwnd <- Float.max (2.0 *. fmss) (cca.cwnd -. fmss)
    end
  in
  let on_loss () =
    Cca.cut_on_loss cca ssthresh ~beta:0.5;
    slow_start := false
  in
  let on_rto ~now:_ =
    Cca.cut_on_rto cca ssthresh ~beta:0.5;
    slow_start := true
  in
  cca.Cca.on_ack <- on_ack;
  cca.Cca.on_loss <- on_loss;
  cca.Cca.on_rto <- on_rto;
  cca
